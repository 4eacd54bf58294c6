// lbmf::extract round-trip coverage: every annotated structure's recording
// must regenerate a litmus file that is semantically identical to the
// committed hand-written one (same program bytes, symbols, holes, finals,
// symmetry — comments and labels don't count), provenance must survive the
// whole pipeline into lbmf::infer's sites, and inference over the
// *generated* THE-deque text must recover the paper's Sec. 6 placement.
//
// This TU is compiled with LBMF_EXTRACT=1 (see tests/CMakeLists.txt), so
// the annotated spec functions in the runtime headers record;
// extract_off_test.cpp proves the same annotations vanish without it.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "lbmf/extract/extract.hpp"
#include "lbmf/infer/infer.hpp"

namespace lbmf::extract {
namespace {

std::string read_litmus(const std::string& name) {
  const std::string path = std::string(LBMF_LITMUS_DIR) + "/" + name;
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------ round trip

TEST(ExtractRoundTrip, EveryRegisteredProtocolIsDriftClean) {
  for (const RegisteredProtocol& rp : protocol_registry()) {
    const EmitResult emitted = emit_lit(record_protocol(rp));
    ASSERT_TRUE(emitted.ok()) << rp.key << ": " << emitted.error_string();
    const DriftReport drift =
        compare_litmus(emitted.text, read_litmus(rp.committed));
    EXPECT_TRUE(drift.clean())
        << rp.key << " drifted from " << rp.committed << ":\n"
        << drift.to_string();
  }
}

TEST(ExtractRoundTrip, GeneratedProgramBytesMatchCommitted) {
  // Stronger than the drift report's verdict: the assembled instruction
  // vectors are equal element-wise, provenance comments notwithstanding.
  for (const RegisteredProtocol& rp : protocol_registry()) {
    const EmitResult emitted = emit_lit(record_protocol(rp));
    ASSERT_TRUE(emitted.ok()) << emitted.error_string();
    const sim::AssembleResult gen = sim::assemble(emitted.text);
    const sim::AssembleResult ref = sim::assemble(read_litmus(rp.committed));
    ASSERT_TRUE(gen.ok()) << rp.key << ": " << gen.error->to_string();
    ASSERT_TRUE(ref.ok()) << rp.key << ": " << ref.error->to_string();
    ASSERT_EQ(gen.programs.size(), ref.programs.size()) << rp.key;
    for (std::size_t cpu = 0; cpu < gen.programs.size(); ++cpu) {
      EXPECT_EQ(gen.programs[cpu].code, ref.programs[cpu].code)
          << rp.key << " cpu" << cpu;
    }
    EXPECT_EQ(gen.symbols, ref.symbols) << rp.key;
    EXPECT_EQ(gen.final_allowed, ref.final_allowed) << rp.key;
    EXPECT_EQ(gen.symmetric_groups, ref.symmetric_groups) << rp.key;
  }
}

TEST(ExtractRoundTrip, DriftReportCatchesAProtocolChange) {
  // Sanity-check the gate itself: perturb one recorded value and the
  // compare must report, not stay silent.
  Spec spec = ws::record_the_deque_protocol();
  ASSERT_FALSE(spec.roles.empty());
  spec.roles[0].ops[0].value ^= 1;  // flip the victim's announce value
  const EmitResult emitted = emit_lit(spec);
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  const DriftReport drift =
      compare_litmus(emitted.text, read_litmus("the_deque_holes.lit"));
  EXPECT_FALSE(drift.clean());
}

// ------------------------------------------------------------ provenance

TEST(ExtractProvenance, HolesCarrySourceLocationsThroughInfer) {
  const EmitResult emitted = emit_lit(ws::record_the_deque_protocol());
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  infer::ProblemParse parsed = infer::problem_from_source(emitted.text);
  ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();
  ASSERT_EQ(parsed.problem->sites.size(), 4u);
  for (const infer::FenceSite& s : parsed.problem->sites) {
    EXPECT_EQ(s.provenance.rfind("lbmf/ws/deque.hpp:", 0), 0u)
        << "site provenance: '" << s.provenance << "'";
  }
}

TEST(ExtractProvenance, NoProvenanceModeEmitsNoComments) {
  EmitOptions opts;
  opts.provenance = false;
  const EmitResult emitted =
      emit_lit(ws::record_the_deque_protocol(), opts);
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  EXPECT_EQ(emitted.text.find("#@"), std::string::npos);
  // Still drift-clean: provenance is presentation, not protocol.
  const DriftReport drift =
      compare_litmus(emitted.text, read_litmus("the_deque_holes.lit"));
  EXPECT_TRUE(drift.clean()) << drift.to_string();
}

TEST(ExtractProvenance, CanonicalPathTrimsToIncludeSuffix) {
  EXPECT_EQ(canonical_source_path("/root/repo/include/lbmf/ws/deque.hpp"),
            "lbmf/ws/deque.hpp");
  EXPECT_EQ(canonical_source_path("deque.hpp"), "deque.hpp");
  EXPECT_EQ(canonical_source_path("/tmp/scratch/spec.cpp"), "spec.cpp");
}

// ------------------------------------------------------- canonicalization

TEST(ExtractEmit, RegistersRenumberedByFirstUse) {
  Recorder rec("regs");
  auto role = rec.role("only", 1);
  role.load(r5, "x");       // first register used -> r0
  role.branch_eq(r5, 0, "done");
  role.load(r3, "y");       // second -> r1
  role.store_reg("z", r3);
  role.label("done");
  role.halt();
  const EmitResult emitted = emit_lit(std::move(rec).take());
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  EXPECT_NE(emitted.text.find("load r0, [x]"), std::string::npos)
      << emitted.text;
  EXPECT_NE(emitted.text.find("load r1, [y]"), std::string::npos);
  EXPECT_NE(emitted.text.find("store [z], r1"), std::string::npos);
  EXPECT_EQ(emitted.text.find("r5"), std::string::npos);
  EXPECT_EQ(emitted.text.find("r3"), std::string::npos);
}

// --------------------------------------------------- parameterized roles

TEST(ExtractRoles, CountParameterStampsIdenticalBodiesSymmetric) {
  Recorder rec("stamped");
  rec.role("owner", 1000).store("F", 1).halt();
  rec.roles("peer", 3, 1, [](RoleRef& p, std::size_t) {
    p.rmw_acquire("G");
    p.store("F", 2);
    p.rmw_release("G");
    p.halt();
  });
  const Spec spec = std::move(rec).take();
  ASSERT_EQ(spec.roles.size(), 4u);
  EXPECT_EQ(spec.roles[1].name, "peer1");
  EXPECT_EQ(spec.roles[3].name, "peer3");
  // Byte-identical bodies were grouped symmetric automatically.
  ASSERT_EQ(spec.symmetric.size(), 1u);
  EXPECT_EQ(spec.symmetric[0],
            (std::vector<std::string>{"peer1", "peer2", "peer3"}));
  const EmitResult emitted = emit_lit(spec);
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  EXPECT_NE(emitted.text.find("symmetric cpu 1, 2, 3"), std::string::npos)
      << emitted.text;
}

TEST(ExtractRoles, IndexVaryingBodiesAreNotGrouped) {
  Recorder rec("varying");
  rec.roles("t", 2, 1, [](RoleRef& p, std::size_t i) {
    p.store(i == 0 ? "A" : "B", 1);  // distinct locations per instance
    p.halt();
  });
  const Spec spec = std::move(rec).take();
  ASSERT_EQ(spec.roles.size(), 2u);
  EXPECT_TRUE(spec.symmetric.empty());
}

// The bakery's contender count is a real parameter: three contenders
// record three byte-identical gated roles, the spec still emits and
// assembles, and the symmetric group covers all three.
TEST(ExtractRoles, BakeryRoleCountScales) {
  const Spec spec = zoo::record_bakery_protocol(3);
  ASSERT_EQ(spec.roles.size(), 4u);  // hot customer + 3 contenders
  ASSERT_EQ(spec.symmetric.size(), 1u);
  EXPECT_EQ(spec.symmetric[0].size(), 3u);
  const EmitResult emitted = emit_lit(spec);
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  const sim::AssembleResult a = sim::assemble(emitted.text);
  ASSERT_TRUE(a.ok()) << a.error->to_string();
  EXPECT_EQ(a.programs.size(), 4u);
  // All contender programs are byte-identical.
  EXPECT_EQ(a.programs[1].code, a.programs[2].code);
  EXPECT_EQ(a.programs[2].code, a.programs[3].code);
}

// ------------------------------------------------------------- validation

TEST(ExtractEmit, RoleWithoutHaltIsRejected) {
  Recorder rec("bad");
  rec.role("r", 1).store("x", 1);
  const EmitResult e = emit_lit(std::move(rec).take());
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error_string().find("LBMF_HALT"), std::string::npos);
}

TEST(ExtractEmit, UndefinedBranchTargetIsRejected) {
  Recorder rec("bad");
  auto role = rec.role("r", 1);
  role.load(r0, "x").branch_eq(r0, 0, "nowhere").halt();
  const EmitResult e = emit_lit(std::move(rec).take());
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error_string().find("nowhere"), std::string::npos);
}

TEST(ExtractEmit, DuplicateRoleNamesAreRejected) {
  Recorder rec("bad");
  rec.role("twin", 1).halt();
  rec.role("twin", 1).halt();
  const EmitResult e = emit_lit(std::move(rec).take());
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error_string().find("duplicate role"), std::string::npos);
}

TEST(ExtractEmit, SymmetricGroupNamingUnknownRoleIsRejected) {
  Recorder rec("bad");
  rec.role("a", 1).halt();
  rec.role("b", 1).halt();
  rec.symmetric("a", "ghost");
  const EmitResult e = emit_lit(std::move(rec).take());
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error_string().find("ghost"), std::string::npos);
}

TEST(ExtractEmit, NonIntegralFreqIsRejected) {
  Recorder rec("bad");
  rec.role("r", 2.5).halt();
  const EmitResult e = emit_lit(std::move(rec).take());
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error_string().find("freq"), std::string::npos);
}

// ----------------------------------------- inference over generated text

TEST(ExtractInfer, GeneratedTheDequeRecoversPaperPlacement) {
  const EmitResult emitted = emit_lit(ws::record_the_deque_protocol());
  ASSERT_TRUE(emitted.ok()) << emitted.error_string();
  infer::ProblemParse parsed = infer::problem_from_source(emitted.text);
  ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();

  infer::InferenceEngine engine(*parsed.problem, {});
  const infer::InferResult r = engine.run();
  ASSERT_EQ(r.status, infer::InferStatus::kSat);
  EXPECT_TRUE(r.recheck_safe);
  EXPECT_EQ(infer::to_string(r.best), "{l-mfence, none, mfence, none}");
  EXPECT_DOUBLE_EQ(r.best_cost, 3260.0);

  // Map-back: the placement reads as source diagnostics over deque.hpp.
  const auto placements = map_back(*parsed.problem, r.best);
  ASSERT_EQ(placements.size(), 4u);
  EXPECT_EQ(placements[0].fence, "l-mfence");
  EXPECT_EQ(placements[0].source.rfind("lbmf/ws/deque.hpp:", 0), 0u);
  const std::string text = format_source_placements(placements);
  EXPECT_NE(text.find("lbmf/ws/deque.hpp:"), std::string::npos) << text;
  EXPECT_NE(text.find("l-mfence"), std::string::npos);

  // And the machine-readable report carries the same source_map.
  const std::string json =
      infer::result_to_json(*parsed.problem, r, "the-deque");
  EXPECT_NE(json.find("\"source_map\""), std::string::npos);
  EXPECT_NE(json.find("\"best_cost\": 3260"), std::string::npos) << json;
  EXPECT_NE(
      json.find(
          "{\"site\": \"cpu0@0[T]=0\", \"fence\": \"l-mfence\", \"source\": "
          "\"lbmf/ws/deque.hpp:"),
      std::string::npos)
      << json;
}

}  // namespace
}  // namespace lbmf::extract
