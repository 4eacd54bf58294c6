#pragma once

/// lbmf::adapt — online fence-policy selection: a per-primary workload
/// monitor (decayed windows over pop/steal rates), the E17 crossover
/// frontier as a runtime lookup table priced with the drain's measured
/// round trip, and the AdaptiveFence policy that re-binds a primary's
/// fence discipline at its own quiescent points. See docs/ARCHITECTURE.md
/// "Adaptive policy selection".

#include "lbmf/adapt/adaptive_fence.hpp"
#include "lbmf/adapt/monitor.hpp"
#include "lbmf/adapt/policy_table.hpp"
#include "lbmf/adapt/selector.hpp"
