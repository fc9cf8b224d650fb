#include "src/obs/text_format.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace paldia::obs {
namespace {

// "%.3f" of the largest finite double: a sign, 309 integer digits, the
// point and three decimals.
constexpr std::size_t kFixedChars = 1 + 309 + 1 + 3;
// "%.10g" is at most "-d.ddddddddde-ddd".
constexpr std::size_t kGeneralChars = 24;

// Timestamps below 2^52 ns (about 52 simulated days) quantize in closed
// form: the printed digits then form an integer a double holds exactly.
constexpr double kExactTimestampUs = 4503599627370496.0 / 1000.0;

// Every power of ten a double holds exactly.
constexpr std::array<double, 23> kPow10 = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

constexpr double kLog10Of2 = 0.30102999566398119521;

/// The integer nearest the exact product x * scale, ties to even — the
/// digits printf prints in the default rounding mode. Needs
/// |x * scale| <= 2^52.
double round_product(double x, double scale) {
  const double p = x * scale;
  const double err = std::fma(x, scale, -p);  // x * scale == p + err exactly
  double n = std::nearbyint(p);
  const double frac = p - n;  // exact, |frac| <= 1/2
  // p is a multiple of its ulp and |err| is at most half an ulp, so the
  // exact product rounds away from n only when p itself is a tie.
  if (std::abs(frac) == 0.5 && err != 0.0 && (err > 0.0) == (frac > 0.0)) {
    n += frac > 0.0 ? 1.0 : -1.0;
  }
  return n;
}

}  // namespace

std::string format_timestamp_us(TimeMs ms) {
  const double us = std::isfinite(ms) ? ms * 1000.0 : 0.0;
  std::array<char, kFixedChars> buf;
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), us,
                                    std::chars_format::fixed, 3);
  return std::string(buf.data(), result.ptr);
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::array<char, kGeneralChars> buf;
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), value,
                                    std::chars_format::general, 10);
  return std::string(buf.data(), result.ptr);
}

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

double quantize_timestamp(TimeMs ms) {
  const double us = std::isfinite(ms) ? ms * 1000.0 : 0.0;
  if (std::abs(us) < kExactTimestampUs) {
    // "%.3f" prints us to the nanosecond; strtod returns the correctly
    // rounded ns / 1000, which is what IEEE division of two exact doubles
    // gives too.
    const double ns = round_product(us, 1000.0);
    if (ns == 0.0) return std::copysign(0.0, us);  // "-0.000" parses as -0
    return ns / 1000.0 / 1000.0;
  }
  return std::strtod(format_timestamp_us(ms).c_str(), nullptr) / 1000.0;
}

double quantize_number(double value) {
  if (!std::isfinite(value)) return 0.0;
  if (value == 0.0) return value;  // "0" or "-0"
  const double magnitude = std::abs(value);
  // "%.10g" prints the ten significant digits of magnitude * 10^shift,
  // shift = 9 - k for the decimal exponent k (10^k <= magnitude < 10^(k+1)).
  // The binary exponent gives k or k - 1; the exact product settles it.
  int shift = 9 - static_cast<int>(std::floor(std::ilogb(magnitude) * kLog10Of2));
  for (int tries = 0; tries < 3; ++tries) {
    if (shift < 0 || shift >= static_cast<int>(kPow10.size())) break;
    const double scale = kPow10[static_cast<std::size_t>(shift)];
    const double p = magnitude * scale;
    const double err = std::fma(magnitude, scale, -p);
    if (p < 1e9 || (p == 1e9 && err < 0.0)) {
      ++shift;
    } else if (p > 1e10 || (p == 1e10 && err >= 0.0)) {
      --shift;
    } else {
      const double parsed = round_product(magnitude, scale) / scale;
      return value < 0.0 ? -parsed : parsed;
    }
  }
  return std::strtod(format_number(value).c_str(), nullptr);
}

}  // namespace paldia::obs
