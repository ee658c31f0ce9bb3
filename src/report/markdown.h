// Markdown emitters for experiment reports (measured-vs-paper tables;
// the known deviations are listed in
// docs/model.md#assumptions-and-known-deviations).
#pragma once

#include <string>
#include <vector>

namespace chiplet::report {

/// GitHub-flavoured markdown table.  Throws ParameterError when a row's
/// width differs from the header's.
[[nodiscard]] std::string markdown_table(
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows);

/// Markdown section heading of the given level (1-6).
[[nodiscard]] std::string markdown_heading(const std::string& text, int level = 2);

}  // namespace chiplet::report
