#pragma once

#include "common.h"

namespace corebench {

/// maint-rmat (`ba` false) and maint-ba (`ba` true): the paper's batch
/// protocol on a many-level R-MAT graph and on a one-core-value BA graph.
Outcome run_maint(const Args& args, bool ba, Tracer& tr);

/// stream: the StreamingEngine end to end under an open-loop producer,
/// with probe-measured freshness and a concurrent CoreView reader.
Outcome run_stream(const Args& args, Tracer& tr);

}  // namespace corebench
