// Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).
//
// Layout: each repetition gets a block of process ids. Within a repetition,
// pid base+0 is the framework process — request lifecycle spans are nestable
// async events (cat "request", id = request id), scheduler decisions are
// instant events with the full candidate sweep in args, counters/gauges are
// "C" events (per monitor tick only when the tracers recorded the timeline,
// TracerConfig::timeline) — and pid base+1+node is one process per hardware
// node whose threads are the device lanes (MPS / time-shared / CPU),
// carrying the batch execution slices.
//
// Output is deterministic: events are serialized in repetition order, in
// each tracer's recording order, with fixed-precision timestamps — the
// bytes are identical however many threads ran the repetitions.
#pragma once

#include <iosfwd>
#include <string>

#include "src/obs/tracer.hpp"

namespace paldia::obs {

/// Serialize one run's repetition traces as Chrome trace-event JSON.
void write_chrome_trace(std::ostream& out, const RunTrace& trace,
                        const std::string& label = "");

/// write_chrome_trace to a file; false (with *error set) when unwritable.
bool write_chrome_trace_file(const std::string& path, const RunTrace& trace,
                             const std::string& label = "",
                             std::string* error = nullptr);

}  // namespace paldia::obs
