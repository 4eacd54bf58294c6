#pragma once

/// lbmf::infer — counterexample-guided fence inference and minimization
/// over the LE/ST simulator: given a program with candidate fence sites
/// (`?fence` holes) and the explorer as a safety oracle, find the
/// minimum-cost placement of {none, mfence, l-mfence} per site.

#include "lbmf/infer/engine.hpp"
#include "lbmf/infer/sites.hpp"
#include "lbmf/infer/sweep.hpp"
