#ifndef SHADOOP_TOOLS_LINT_LINT_ENGINE_H_
#define SHADOOP_TOOLS_LINT_LINT_ENGINE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

/// Repo-specific determinism lint (DESIGN.md §11).
///
/// The runtime's reproducibility contract — byte-identical rows, counters
/// and JobCost for a given seed — is easy to break with one line: an
/// iteration over a hash container feeding an emit, a wall-clock read in
/// library code, an unannotated mutex the thread-safety analysis cannot
/// see. This engine enforces those bans as a blocking lint over src/,
/// with per-line `// lint:allow(rule-id)` escapes for the rare deliberate
/// exception.
///
/// The engine is a library (linked by tests/lint_test.cc) with a thin CLI
/// in lint_main.cc; the `determinism_lint` ctest target runs the CLI over
/// the real tree so `ctest` fails the moment a banned pattern lands.
namespace shadoop::lint {

// Source scanning shared with the analyzer (tools/analyze), so both
// tools see the same lines and the same code/comment split.

/// True for characters that can continue a C++ identifier.
bool IsIdentChar(char c);

/// `path` with backslashes turned into forward slashes.
std::string NormalizePath(std::string_view path);

/// `contents` split at '\n' (no trailing empty line).
std::vector<std::string> SplitLines(std::string_view contents);

/// `raw` with comment bodies and string/char-literal contents blanked to
/// spaces, so nothing downstream fires on prose or literals. Block
/// comments carry state across lines; a string or char literal never
/// spans a line break in this codebase.
std::vector<std::string> BlankCommentsAndLiterals(
    const std::vector<std::string>& raw);

/// One rule violation at one line.
struct Finding {
  std::string file;
  int line = 0;  // 1-based.
  std::string rule;
  std::string message;
};

/// "file:line: rule-id: message" — the clickable CI annotation format.
std::string FormatFinding(const Finding& finding);

/// Registry entry; `rules()` below is the extension point future PRs add
/// to (register the rule, cover it in lint_test, document it in DESIGN.md
/// §11).
struct RuleInfo {
  std::string id;
  std::string summary;
};

class Linter {
 public:
  Linter();

  const std::vector<RuleInfo>& rules() const { return rules_; }

  /// Lints one file's contents. `path` participates in per-path
  /// exemptions (e.g. wall-clock reads are legal inside
  /// common/stopwatch.h), so tests can exercise them with fixture paths.
  std::vector<Finding> LintFile(std::string_view path,
                                std::string_view contents) const;

  /// Lints every .h/.hpp/.cc/.cpp under `root` (recursively, in sorted
  /// path order so output is deterministic). I/O errors are reported as
  /// findings under the pseudo-rule "io-error".
  std::vector<Finding> LintTree(const std::string& root) const;

 private:
  std::vector<RuleInfo> rules_;
};

}  // namespace shadoop::lint

#endif  // SHADOOP_TOOLS_LINT_LINT_ENGINE_H_
