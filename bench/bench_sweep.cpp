// E17 — LE/ST-vs-mfence cost frontier on the THE deque protocol: run
// lbmf::infer over the 4-hole deque litmus (examples/litmus/
// the_deque_holes.lit, embedded below) at every point of a (victim pop
// frequency × LE/ST remote-round-trip cost) grid and chart where the
// inferred optimum crosses over between the all-mfence placement, the
// paper's asymmetric mix (victim l-mfence + thief mfence), and the
// double-l-mfence corner where remote trips are nearly free. Safety is
// cost-independent, so the whole grid shares one verdict cache and the
// explorer runs only once per distinct lattice point.
//
//   bench_sweep            # full 6x5 grid
//   bench_sweep --quick    # CI smoke mode: 3x2 grid around the frontier
//
// The sweep also runs the serialization-backend dimension: one extra
// plane per backend {signal, membarrier-pair}. The signal backend cannot
// invert roles, so its plane re-solves with l-mfence banned on the
// thief's holes and must never contain a double-l-mfence optimum;
// membarrier-pair inverts roles, admits the full lattice, and its plane
// must equal the base grid — in particular the cheap-trip corner (freq 1,
// rt 10) keeps the double-l-mfence placement that the adaptive runtime
// can now realize (bench_adapt gates the realization).
//
// Emits BENCH_sweep.json (per-point optima, crossover boundaries, backend
// planes, cache accounting) in the working directory. Exit 0 requires
// every grid point — planes included — SAT with a SAFE recheck, at least
// two distinct optima along the freq axis at the paper's 150-cycle
// round-trip, agreement with three hand-checked grid points, and the
// backend-plane gates above (see ROADMAP/EXPERIMENTS E17).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "lbmf/infer/infer.hpp"

using namespace lbmf;

namespace {

// examples/litmus/the_deque_holes.lit, embedded so the bench is
// self-contained and keeps working from any working directory.
constexpr const char* kHoleyDeque = R"(
init [T], 1

cpu 0:                     # victim: pop() on the hot path
  freq 1000
  ?fence [T], 0            # hole A: announce the tail decrement
  load r0, [H]
  beq r0, 0, claim
  ?fence [T], 1            # hole B: retreat
  lock [G]
  load r1, [H]
  bne r1, 0, empty
  store [T], 0
  store [TK0], 1
empty:
  unlock [G]
  halt
claim:
  store [TK0], 1
  halt

cpu 1:                     # thief: steal(), always under the gate
  freq 1
  lock [G]
  ?fence [H], 1            # hole C: announce the head increment
  load r0, [T]
  beq r0, 0, miss
  store [TK1], 1
  unlock [G]
  halt
miss:
  ?fence [H], 0            # hole D: retreat
  unlock [G]
  halt

final [TK0], 1, [TK1], 0
final [TK0], 0, [TK1], 1
)";

const infer::SweepPoint* find_point_in(
    const std::vector<infer::SweepPoint>& pts, double freq, double roundtrip) {
  for (const infer::SweepPoint& p : pts) {
    if (p.victim_freq == freq && p.lest_roundtrip == roundtrip) return &p;
  }
  return nullptr;
}

const infer::SweepPoint* find_point(const infer::SweepResult& r, double freq,
                                    double roundtrip) {
  return find_point_in(r.points, freq, roundtrip);
}

bool is_double(const infer::SweepPoint* p) {
  // Holes {A,B,C,D} = {victim announce, victim retreat, thief announce,
  // thief retreat}: double-l-mfence = light announce on both sides.
  return p != nullptr && p->status == infer::InferStatus::kSat &&
         p->best.kinds.size() == 4 &&
         p->best.kinds[0] == infer::FenceKind::kLmfence &&
         p->best.kinds[2] == infer::FenceKind::kLmfence;
}

// The three hand-derived grid points the sweep must reproduce (costs from
// model::CostTable defaults; see EXPERIMENTS.md E17 for the arithmetic).
bool check_known_point(const infer::SweepResult& r, double freq,
                       double roundtrip, const char* expect) {
  const infer::SweepPoint* p = find_point(r, freq, roundtrip);
  if (p == nullptr) {
    std::printf("  MISSING grid point (freq %g, roundtrip %g)\n", freq,
                roundtrip);
    return false;
  }
  const std::string got = infer::to_string(p->best);
  const bool ok =
      p->status == infer::InferStatus::kSat && p->recheck_safe && got == expect;
  std::printf("  (freq %-6g rt %-4g) expect %-34s got %-34s %s\n", freq,
              roundtrip, expect, got.c_str(), ok ? "ok" : "MISMATCH");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const infer::ProblemParse parsed = infer::problem_from_source(kHoleyDeque);
  if (!parsed.ok()) {
    std::printf("FAIL: embedded litmus does not assemble: line %zu: %s\n",
                parsed.error ? parsed.error->line : 0,
                parsed.error ? parsed.error->message.c_str() : "?");
    return 1;
  }

  infer::SweepOptions so;
  so.backends = {{"signal", /*inverts_roles=*/false},
                 {"membarrier-pair", /*inverts_roles=*/true}};
  if (quick) {
    // The smallest grid that still crosses the frontier twice: the freq
    // axis at rt=150 flips between f=1 and f=10, and the cheap-round-trip
    // corner (f=1, rt=10) prefers the double-l-mfence placement.
    so.victim_freqs = {1, 10, 1'000};
    so.roundtrips = {10, 150};
  }

  const auto t0 = std::chrono::steady_clock::now();
  const infer::SweepResult r = infer::run_sweep(*parsed.problem, so);
  const auto t1 = std::chrono::steady_clock::now();
  const double ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;

  std::printf("THE-deque cost frontier, %s %zux%zu grid (%.1f ms)\n\n",
              quick ? "quick" : "full", r.roundtrips.size(),
              r.victim_freqs.size(), ms);
  std::printf("%-10s", "rt\\freq");
  for (double f : r.victim_freqs) std::printf(" %-28g", f);
  std::printf("\n");
  for (double rt : r.roundtrips) {
    std::printf("%-10g", rt);
    for (double f : r.victim_freqs) {
      const infer::SweepPoint* p = find_point(r, f, rt);
      std::printf(" %-28s", p != nullptr && p->status == infer::InferStatus::kSat
                                ? infer::to_string(p->best).c_str()
                                : "?");
    }
    std::printf("\n");
  }

  std::printf("\ncrossovers:\n");
  if (r.crossovers.empty()) std::printf("  (none)\n");
  for (const infer::Crossover& x : r.crossovers) {
    std::printf("  rt %-5g: %s -> %s between freq %g and %g\n",
                x.lest_roundtrip, x.from.c_str(), x.to.c_str(), x.freq_before,
                x.freq_after);
  }
  std::printf(
      "grid points %zu, explorer runs %llu, cache hits %llu, states %llu\n",
      r.points.size(), static_cast<unsigned long long>(r.explorer_runs),
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.states_total));

  std::printf("\nhand-checked points:\n");
  bool known_ok = true;
  known_ok &= check_known_point(r, 1, 150, "{mfence, none, mfence, none}");
  known_ok &=
      check_known_point(r, 1'000, 150, "{l-mfence, none, mfence, none}");
  known_ok &= check_known_point(r, 1, 10, "{l-mfence, none, l-mfence, none}");

  const std::size_t optima_150 = r.distinct_optima_at(150);
  std::printf("distinct optima along freq axis at rt=150: %zu (target >= 2)\n",
              optima_150);

  std::printf("\nbackend planes:\n");
  bool backend_ok = r.backend_planes.size() == so.backends.size();
  if (!backend_ok) std::printf("  MISSING planes\n");
  for (const infer::SweepBackendPlane& bp : r.backend_planes) {
    bool plane_ok = true;
    if (bp.inverts_roles) {
      // Full lattice: the plane must reproduce the base grid verbatim,
      // double-l-mfence corner included.
      for (std::size_t i = 0; i < r.points.size(); ++i) {
        plane_ok &= i < bp.points.size() &&
                    bp.points[i].best == r.points[i].best &&
                    bp.points[i].status == infer::InferStatus::kSat;
      }
      plane_ok &= is_double(find_point_in(bp.points, 1, 10));
    } else {
      // Fixed roles: every point re-solved SAT, and no thief hole may
      // carry l-mfence anywhere on the plane.
      for (const infer::SweepPoint& p : bp.points) {
        plane_ok &= p.status == infer::InferStatus::kSat && p.recheck_safe;
        for (std::size_t hole = 2; hole < p.best.kinds.size(); ++hole) {
          plane_ok &= p.best.kinds[hole] != infer::FenceKind::kLmfence;
        }
      }
      plane_ok &= !is_double(find_point_in(bp.points, 1, 10));
    }
    const infer::SweepPoint* corner = find_point_in(bp.points, 1, 10);
    std::printf("  %-16s (%s roles): corner (freq 1, rt 10) = %-34s %s\n",
                bp.name.c_str(), bp.inverts_roles ? "inverts" : "fixed",
                corner != nullptr ? infer::to_string(corner->best).c_str()
                                  : "?",
                plane_ok ? "ok" : "GATE FAILED");
    backend_ok &= plane_ok;
  }

  if (std::FILE* f = std::fopen("BENCH_sweep.json", "w")) {
    std::fprintf(f, "%s\n",
                 infer::sweep_to_json(r, "the_deque_holes").c_str());
    std::fclose(f);
    std::printf("wrote BENCH_sweep.json\n");
  }

  const bool pass = r.all_sat() && optima_150 >= 2 && known_ok && backend_ok;
  std::printf("%s\n",
              pass ? "PASS"
                   : "FAIL: grid not fully SAT, frontier flat at rt=150, "
                     "hand-checked point mismatch, or backend-plane gate");
  return pass ? 0 : 1;
}
