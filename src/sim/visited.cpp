#include "lbmf/sim/visited.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "lbmf/util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define LBMF_VISITED_HAVE_MMAP 1
#endif

namespace lbmf::sim {

SpillSegment::SpillSegment(const std::vector<Fingerprint>& slots)
    : nslots_(slots.size()) {
  LBMF_CHECK(nslots_ != 0 && (nslots_ & (nslots_ - 1)) == 0);
  const std::size_t len = nslots_ * sizeof(Fingerprint);
#ifdef LBMF_VISITED_HAVE_MMAP
  // An unlinked temp file: the bytes live in the filesystem (and its page
  // cache), vanish with the last mapping, and never show up as a stray
  // artifact even if the process dies mid-run.
  const char* tmpdir = std::getenv("TMPDIR");
  std::string path = (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
  path += "/lbmf-visited-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd >= 0) {
    ::unlink(path.c_str());
    const char* p = reinterpret_cast<const char*>(slots.data());
    std::size_t off = 0;
    while (off < len) {
      const ::ssize_t n = ::write(fd, p + off, len - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    if (off == len) {
      void* m = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd, 0);
      if (m != MAP_FAILED) mapped_ = m;
    }
    ::close(fd);
  }
#endif
  if (mapped_ == nullptr) ram_ = slots;  // fallback: stay resident
}

SpillSegment::~SpillSegment() {
#ifdef LBMF_VISITED_HAVE_MMAP
  if (mapped_ != nullptr) {
    ::munmap(mapped_, nslots_ * sizeof(Fingerprint));
  }
#endif
}

bool SpillSegment::contains(const Fingerprint& fp) const noexcept {
  const Fingerprint* slots = data();
  const std::size_t mask = nslots_ - 1;
  std::size_t i = static_cast<std::size_t>(fp.hi) & mask;
  while (true) {
    const Fingerprint& slot = slots[i];
    if (slot.lo == 0 && slot.hi == 0) return false;
    if (slot == fp) return true;
    i = (i + 1) & mask;
  }
}

VisitedSet::VisitedSet(bool exact, std::uint64_t budget_bytes)
    : exact_(exact) {
  if (budget_bytes != 0 && !exact) {
    budget_ = std::max<std::uint64_t>(budget_bytes, kMinBudget);
  }
}

bool VisitedSet::insert(Fingerprint fp, const std::string& canonical) {
  if (exact_) return exact_keys_.insert(canonical).second;
  // Normalize once so the live set and the frozen segments agree on the
  // {0,0}-is-empty convention.
  if (fp.lo == 0 && fp.hi == 0) fp.lo = 1;
  for (const auto& seg : segs_) {
    if (seg->contains(fp)) return false;
  }
  if (!fps_.insert(fp)) return false;
  if (budget_ != 0 && fps_.bytes() > budget_) {
    segs_.push_back(std::make_unique<SpillSegment>(fps_.slots()));
    fps_ = FingerprintSet{};
  }
  return true;
}

void VisitedSet::preload(const std::vector<Fingerprint>& fps) {
  LBMF_CHECK_MSG(!exact_, "preload requires fingerprint mode");
  static const std::string kNoCanonical;
  for (const Fingerprint& fp : fps) insert(fp, kNoCanonical);
}

std::uint64_t VisitedSet::bytes() const {
  std::uint64_t total = 0;
  if (exact_) {
    // Approximate unordered_set<string> footprint: key bytes + string
    // header + node and bucket overhead.
    for (const std::string& k : exact_keys_) {
      total += k.capacity() + sizeof(std::string) + 24;
    }
    return total + exact_keys_.bucket_count() * sizeof(void*);
  }
  total = fps_.bytes();
  for (const auto& seg : segs_) {
    if (!seg->on_disk()) total += seg->bytes();
  }
  return total;
}

std::uint64_t VisitedSet::spill_bytes() const {
  std::uint64_t total = 0;
  for (const auto& seg : segs_) {
    if (seg->on_disk()) total += seg->bytes();
  }
  return total;
}

}  // namespace lbmf::sim
