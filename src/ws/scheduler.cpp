#include "lbmf/ws/chase_lev.hpp"
#include "lbmf/ws/scheduler.hpp"

namespace lbmf::ws {

// Explicit instantiations over every shipped fence policy: catches template
// errors at library-build time and shares code across client TUs.
template class Scheduler<SymmetricFence>;
template class Scheduler<AsymmetricSignalFence>;
template class Scheduler<AsymmetricMembarrierFence>;
template class Scheduler<UnsafeNoFence>;
template class Scheduler<adapt::AdaptiveFence>;

template class ChaseLevDeque<SymmetricFence>;
template class ChaseLevDeque<AsymmetricSignalFence>;
template class ChaseLevDeque<AsymmetricMembarrierFence>;

template class TheDeque<SymmetricFence>;
template class TheDeque<AsymmetricSignalFence>;
template class TheDeque<AsymmetricMembarrierFence>;
template class TheDeque<UnsafeNoFence>;
template class TheDeque<adapt::AdaptiveFence>;

}  // namespace lbmf::ws
