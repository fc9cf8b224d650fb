// The exporters' text formats, in one place. Every number a Chrome trace,
// a metrics / decision / rollup / alert stream, or a report file carries is
// written by format_timestamp_us() or format_number(), and every string
// field goes through json_escape().
//
// The inline report producer (extract_run_data) must see the same doubles
// a reader of those files sees, so it passes each value through the
// quantizers below. Their contract: quantize_x(v) is exactly, bit for bit,
// the double strtod parses from format_x(v). They compute it in closed form
// over the value ranges a simulation produces and parse the writer's own
// text outside them. The Quantize suite in tests/obs/report_test.cpp pins
// the contract against the snprintf/strtod round trip.
#pragma once

#include <string>
#include <string_view>

#include "src/common/units.hpp"

namespace paldia::obs {

/// A simulated time as the Chrome trace's microsecond field: printf's
/// "%.3f" of ms * 1000, and "0.000" for a non-finite time.
std::string format_timestamp_us(TimeMs ms);

/// A numeric field: printf's "%.10g", and "0" for a non-finite value.
std::string format_number(double value);

/// The body of a JSON string: quotes, backslashes and control characters
/// escaped, every other byte kept.
std::string json_escape(std::string_view text);

/// The time in ms a reader recovers from format_timestamp_us(ms): the
/// parsed microseconds divided by 1000.
double quantize_timestamp(TimeMs ms);

/// The double a reader parses from format_number(value).
double quantize_number(double value);

}  // namespace paldia::obs
