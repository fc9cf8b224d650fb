// Streaming JSONL/CSV export of RunMetrics rows and scheduler decision
// logs, so fig sweeps can run unattended and leave machine-readable
// results behind (ROADMAP "metrics export path").
//
// Format is inferred from the file extension: ".csv" writes CSV with a
// header row, anything else writes JSON Lines (one object per line). Rows
// are flushed as they are written, so a killed sweep still leaves the
// completed rows on disk.
#pragma once

#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>

#include "src/obs/tracer.hpp"
#include "src/telemetry/metrics.hpp"

namespace paldia::obs {

enum class ExportFormat { kJsonl, kCsv };

/// ".csv" -> CSV, everything else -> JSONL.
ExportFormat format_for_path(const std::string& path);

/// The destination the streaming writers below share: a file they open or a
/// caller's stream, and the first error it hit. Every write() ends with a
/// flush, so a killed sweep keeps its completed rows. A stream that fails
/// to take the rows (disk full, closed pipe) sets error() to "write failed
/// for <path>", and the writer writes nothing more.
class ExportStream {
 public:
  bool ok() const { return out_ != nullptr && error_.empty(); }
  const std::string& error() const { return error_; }

 protected:
  /// Write to an already-open stream (testing / composition).
  ExportStream(std::ostream& out, ExportFormat format);
  /// Open `path` (truncating) and infer the format from its extension.
  explicit ExportStream(const std::string& path);

  /// Flush the rows written so far; a failed stream becomes the error.
  void flush();

  std::ostream* out_ = nullptr;
  ExportFormat format_ = ExportFormat::kJsonl;
  bool header_written_ = false;

 private:
  std::unique_ptr<std::ofstream> file_;
  std::string path_;
  std::string error_;
};

/// Streaming RunMetrics writer (one row per completed scheme run).
class MetricsWriter : public ExportStream {
 public:
  MetricsWriter(std::ostream& out, ExportFormat format) : ExportStream(out, format) {}
  explicit MetricsWriter(const std::string& path) : ExportStream(path) {}

  /// Append one row. `figure` tags the row with the emitting driver so
  /// multi-figure sweeps can share one output file.
  void write(const telemetry::RunMetrics& metrics, const std::string& figure = "");
};

/// Streaming scheduler-decision-log writer: one row per monitor tick per
/// repetition, in repetition order (deterministic across thread counts).
class DecisionLogWriter : public ExportStream {
 public:
  DecisionLogWriter(std::ostream& out, ExportFormat format)
      : ExportStream(out, format) {}
  explicit DecisionLogWriter(const std::string& path) : ExportStream(path) {}

  /// Append all decision records of a completed run.
  void write(const RunTrace& trace, const std::string& scheme,
             const std::string& scenario);

 private:
  void write_record(const DecisionRecord& record, int rep, const std::string& scheme,
                    const std::string& scenario);
};

/// Streaming rollup writer (--rollup-out): one row per (repetition, window,
/// model, node) cell, walked in repetition order then sorted key order —
/// byte-identical however many pool threads ran the reps.
/// JSONL rows are what `paldia-analyze --rollup` consumes; the sparse
/// "hist" bucket pairs round-trip each cell's latency sketch exactly.
class RollupWriter : public ExportStream {
 public:
  RollupWriter(std::ostream& out, ExportFormat format) : ExportStream(out, format) {}
  explicit RollupWriter(const std::string& path) : ExportStream(path) {}

  /// Append all rollup cells of a completed run. `run` is the report label
  /// ("scenario / scheme") that rollup-only analysis groups rows by.
  void write(const RunTrace& trace, const std::string& run);

 private:
  void write_cell(const RollupKey& key, const RollupCell& cell,
                  const RollupConfig& config, int rep, const std::string& run);
};

/// Streaming alert/incident writer (--alerts-out): per repetition, every
/// resolved incident in resolution order, then one "summary" row carrying
/// the rep's ground truth (completions, violations, first-violation time,
/// evaluation count) — everything `paldia-analyze --alerts` needs to
/// rebuild the report's "health" section offline, byte for byte.
class AlertWriter : public ExportStream {
 public:
  AlertWriter(std::ostream& out, ExportFormat format) : ExportStream(out, format) {}
  explicit AlertWriter(const std::string& path) : ExportStream(path) {}

  /// Append all incidents of a completed run. `run` is the report label
  /// ("scenario / scheme") that alert-stream analysis groups rows by.
  void write(const RunTrace& trace, const std::string& run);

 private:
  void write_header();
  void write_alert(const AlertRecord& record, int rep, const std::string& run);
  void write_summary(const HealthEngine& engine, int rep, const std::string& run);
};

/// "out.json" + ("azure", "Paldia") -> "out.azure_Paldia.json": one trace
/// file per (scenario, scheme) run when a driver sweeps several.
std::string derive_trace_path(const std::string& base, const std::string& scenario,
                              const std::string& scheme);

/// One-shot WARN when the trace's ring buffers overflowed: an attribution
/// or calibration report over a truncated trace is quietly wrong, so
/// truncation must never be silent. Returns true when drops occurred.
/// `context` names the export ("fig13 azure/Paldia", a file path, ...).
bool warn_if_truncated(const RunTrace& trace, const std::string& context);

}  // namespace paldia::obs
