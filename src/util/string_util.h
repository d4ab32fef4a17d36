#ifndef EMBSR_UTIL_STRING_UTIL_H_
#define EMBSR_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace embsr {

/// Joins `parts` with `sep` between them.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits `s` at each occurrence of `sep`; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Formats a double with `digits` decimal places, e.g. 12.34.
std::string FormatDouble(double value, int digits = 2);

/// Right-pads or truncates `s` to exactly `width` characters.
std::string PadRight(const std::string& s, size_t width);

/// Renders an aligned plain-text table: one header row plus data rows.
/// Used by the bench harnesses to print paper-style tables.
std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

}  // namespace embsr

#endif  // EMBSR_UTIL_STRING_UTIL_H_
