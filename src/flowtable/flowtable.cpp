#include "lbmf/flowtable/flow_table.hpp"

#include <sys/mman.h>

#include "lbmf/flowtable/pipeline.hpp"

namespace lbmf::flowtable {

namespace detail {

SlotArray::SlotArray(std::size_t n) {
  if (n == 0) return;
  const std::size_t len = n * sizeof(Slot);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  LBMF_CHECK_MSG(p != MAP_FAILED, "flow table: cannot map a slot array");
  // Advice only: a refusal leaves correct, lazily faulted 4 KiB pages.
#ifdef MADV_HUGEPAGE
  (void)::madvise(p, len, MADV_HUGEPAGE);
#endif
#ifdef MADV_POPULATE_WRITE
  (void)::madvise(p, len, MADV_POPULATE_WRITE);
#endif
  data_ = static_cast<Slot*>(p);
  size_ = n;
}

void SlotArray::reset() noexcept {
  if (data_ != nullptr) ::munmap(data_, size_ * sizeof(Slot));
  data_ = nullptr;
  size_ = 0;
}

}  // namespace detail

// Explicit instantiations over the shipped fence policies.
template class FlowTable<SymmetricFence>;
template class FlowTable<AsymmetricSignalFence>;
template class FlowTable<AsymmetricMembarrierFence>;

template PipelineResult run_pipeline<SymmetricFence>(double, std::size_t,
                                                     std::uint64_t,
                                                     std::uint32_t,
                                                     std::uint64_t,
                                                     std::size_t, Growth);
template PipelineResult run_pipeline<AsymmetricSignalFence>(
    double, std::size_t, std::uint64_t, std::uint32_t, std::uint64_t,
    std::size_t, Growth);

}  // namespace lbmf::flowtable
