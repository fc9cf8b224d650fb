// paldia-analyze: offline report over exported observability artifacts.
//
//   paldia-analyze trace1.json [trace2.json ...] [options]
//
// Ingests Chrome-trace exports (bench --trace-out files, one per
// scenario/scheme run), reconstructs the SLO-violation attribution and
// analytical-model calibration the framework computed online, and prints a
// human-readable report. The analysis core (src/obs/report.cpp) is shared
// with the drivers' inline --report-out path, so the offline numbers are
// byte-identical to the inline ones.
//
// Rollup-only mode ingests a --rollup-out JSONL stream instead of (or in
// addition to) full traces: compliance and attribution are rebuilt from the
// windowed cells alone, without any lifecycle trace on disk. Alert mode
// (--alerts) likewise rebuilds the report's "health" section — incident
// timeline, MTTD, false-positive rate — from an --alerts-out JSONL stream,
// byte-identical to the inline --report-out section.
//
// Options:
//   --rollup PATH       rebuild reports from a rollup JSONL stream
//   --alerts PATH       rebuild health reports from an alert JSONL stream
//   --report-out PATH   also write the report as JSON
//   --metrics PATH      echo a metrics JSONL/CSV export (cross-check section)
//   --decisions PATH    count rows of a decision-log export
//   --json              print the JSON report to stdout instead of text
//   --quiet             suppress the text report (use with --report-out)
//
// Unknown or malformed flags exit nonzero with the usage message.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"

namespace {

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// "artifacts/fig13.azure_Paldia.json" -> "fig13.azure_Paldia"
std::string label_for_path(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return name;
}

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [trace.json ...] [options]\n"
               "  --rollup PATH      rebuild reports from a rollup JSONL stream\n"
               "  --alerts PATH      rebuild health reports from an alert JSONL\n"
               "                     stream (--alerts-out output)\n"
               "  --report-out PATH  also write the report as JSON\n"
               "  --metrics PATH     echo a metrics JSONL/CSV export\n"
               "  --decisions PATH   count rows of a decision-log export\n"
               "  --json             print the JSON report to stdout\n"
               "  --quiet            suppress the text report\n"
               "  --help, -h         this message\n"
               "at least one trace file, --rollup, or --alerts stream is "
               "required\n",
               argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

/// Optional cross-check section: echo the exporter's own metrics rows so a
/// report and the raw export can be eyeballed side by side.
void print_metrics_echo(std::ostream& out, const std::string& path) {
  std::string text;
  std::string error;
  if (!read_file(path, &text, &error)) {
    out << "metrics: " << error << "\n";
    return;
  }
  if (paldia::obs::format_for_path(path) == paldia::obs::ExportFormat::kCsv) {
    std::size_t rows = 0;
    for (const char c : text) rows += c == '\n' ? 1 : 0;
    out << "metrics: " << path << " (" << (rows > 0 ? rows - 1 : 0)
        << " CSV rows)\n";
    return;
  }
  const auto parsed = paldia::common::parse_json_lines(text);
  if (!parsed.ok) {
    out << "metrics: " << path << ": " << parsed.error << "\n";
    return;
  }
  out << "metrics: " << path << " (" << parsed.rows.size() << " rows)\n";
  for (const auto& row : parsed.rows) {
    out << "  " << row.string_or("figure", "?") << " " << row.string_or("scheme", "?")
        << " " << row.string_or("workload", "?") << ": compliance "
        << row.number_or("slo_compliance", 0.0) * 100.0 << "%, violations "
        << row.number_or("slo_violations", 0.0) << ", p99 "
        << row.number_or("p99_latency_ms", 0.0) << " ms\n";
  }
}

void print_decisions_echo(std::ostream& out, const std::string& path) {
  std::string text;
  std::string error;
  if (!read_file(path, &text, &error)) {
    out << "decisions: " << error << "\n";
    return;
  }
  std::size_t rows = 0;
  for (const char c : text) rows += c == '\n' ? 1 : 0;
  const bool csv =
      paldia::obs::format_for_path(path) == paldia::obs::ExportFormat::kCsv;
  if (csv && rows > 0) --rows;  // header
  out << "decisions: " << path << " (" << rows << " rows)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trace_paths;
  std::string rollup_path;
  std::string alerts_path;
  std::string report_out;
  std::string metrics_path;
  std::string decisions_path;
  bool json_stdout = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value" (the bench drivers use
    // the latter form).
    std::string inline_value;
    bool has_inline_value = false;
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline_value = true;
        arg = arg.substr(0, eq);
      }
    }
    const auto next = [&](const char* flag) -> std::string {
      if (has_inline_value) return inline_value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--rollup") {
      rollup_path = next("--rollup");
    } else if (arg == "--alerts") {
      alerts_path = next("--alerts");
    } else if (arg == "--report-out") {
      report_out = next("--report-out");
    } else if (arg == "--metrics") {
      metrics_path = next("--metrics");
    } else if (arg == "--decisions") {
      decisions_path = next("--decisions");
    } else if (arg == "--json") {
      json_stdout = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      trace_paths.push_back(arg);
    }
  }
  if (trace_paths.empty() && rollup_path.empty() && alerts_path.empty()) {
    return usage(argv[0]);
  }

  std::vector<paldia::obs::AnalysisReport> reports;
  for (const std::string& path : trace_paths) {
    std::string text;
    std::string error;
    if (!read_file(path, &text, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const auto parsed = paldia::common::parse_json(text);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error.c_str());
      return 1;
    }
    paldia::obs::RunData data;
    if (!paldia::obs::parse_chrome_trace(parsed.value, label_for_path(path), &data,
                                         &error)) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    reports.push_back(paldia::obs::analyze_with_zoo(data));
  }

  if (!rollup_path.empty()) {
    std::string text;
    std::string error;
    if (!read_file(rollup_path, &text, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::vector<paldia::obs::AnalysisReport> rollup_reports;
    if (!paldia::obs::analyze_rollup_stream(text, &rollup_reports, &error)) {
      std::fprintf(stderr, "%s: %s\n", rollup_path.c_str(), error.c_str());
      return 1;
    }
    for (auto& report : rollup_reports) {
      reports.push_back(std::move(report));
    }
  }

  if (!alerts_path.empty()) {
    std::string text;
    std::string error;
    if (!read_file(alerts_path, &text, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::vector<paldia::obs::AnalysisReport> alert_reports;
    if (!paldia::obs::analyze_alert_stream(text, &alert_reports, &error)) {
      std::fprintf(stderr, "%s: %s\n", alerts_path.c_str(), error.c_str());
      return 1;
    }
    for (auto& report : alert_reports) {
      reports.push_back(std::move(report));
    }
  }

  if (!quiet) {
    if (json_stdout) {
      paldia::obs::write_report_json(std::cout, reports);
    } else {
      paldia::obs::render_report_text(std::cout, reports);
      if (!metrics_path.empty()) print_metrics_echo(std::cout, metrics_path);
      if (!decisions_path.empty()) print_decisions_echo(std::cout, decisions_path);
    }
  }

  if (!report_out.empty()) {
    std::string error;
    if (!paldia::obs::write_report_json_file(report_out, reports, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!quiet && !json_stdout) {
      std::cout << "report written to " << report_out << "\n";
    }
  }
  return 0;
}
