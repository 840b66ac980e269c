// The library's one parallel loop.
//
// Two places spread independent work over cores: the experiment driver's
// trials and shards (sim::ExperimentDriver) and the overlay-tree build's
// chunks of path sweeps (tomography::OverlayTrees).  Both run on
// parallel_for, so threads start in one place, under one exception rule.
// Determinism is the caller's business: a body that writes only its own
// index's slot, and reads only shared state that no body writes, gives the
// same slots at any worker count.

#pragma once

#include <cstddef>

#include "util/function_ref.h"

namespace concilium::util {

/// Runs body(i) once for every i in [0, count) on up to `workers` threads,
/// the calling thread among them, so workers <= 1 runs every index inline,
/// in order, and starts no thread.  Indices come from one counter, in
/// increasing order.  A thread the system refuses to start is skipped: the
/// threads already running take every index.  Once a body throws, no new
/// index starts; after every thread has stopped, the exception of the
/// lowest failing index is rethrown.  Every index below a failing one has
/// started by then, so which exception that is does not depend on timing.
void parallel_for(std::size_t count, std::size_t workers,
                  FunctionRef<void(std::size_t)> body);

}  // namespace concilium::util
