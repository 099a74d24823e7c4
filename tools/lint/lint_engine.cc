#include "lint/lint_engine.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace shadoop::lint {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string NormalizePath(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

std::vector<std::string> SplitLines(std::string_view contents) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= contents.size()) {
    size_t end = contents.find('\n', start);
    if (end == std::string_view::npos) {
      if (start < contents.size()) lines.emplace_back(contents.substr(start));
      break;
    }
    lines.emplace_back(contents.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> BlankCommentsAndLiterals(
    const std::vector<std::string>& raw) {
  enum class State { kCode, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::vector<std::string> out;
  out.reserve(raw.size());
  for (const std::string& line : raw) {
    std::string code = line;
    for (size_t i = 0; i < code.size(); ++i) {
      switch (state) {
        case State::kCode:
          if (code[i] == '/' && i + 1 < code.size() && code[i + 1] == '/') {
            for (size_t j = i; j < code.size(); ++j) code[j] = ' ';
            i = code.size();
          } else if (code[i] == '/' && i + 1 < code.size() &&
                     code[i + 1] == '*') {
            code[i] = code[i + 1] = ' ';
            ++i;
            state = State::kBlockComment;
          } else if (code[i] == '"') {
            code[i] = ' ';
            state = State::kString;
          } else if (code[i] == '\'') {
            code[i] = ' ';
            state = State::kChar;
          }
          break;
        case State::kBlockComment:
          if (code[i] == '*' && i + 1 < code.size() && code[i + 1] == '/') {
            code[i] = code[i + 1] = ' ';
            ++i;
            state = State::kCode;
          } else {
            code[i] = ' ';
          }
          break;
        case State::kString:
        case State::kChar: {
          const char quote = state == State::kString ? '"' : '\'';
          if (code[i] == '\\' && i + 1 < code.size()) {
            code[i] = code[i + 1] = ' ';
            ++i;
          } else {
            const bool closes = code[i] == quote;
            code[i] = ' ';
            if (closes) state = State::kCode;
          }
          break;
        }
      }
    }
    // A string or char literal never spans a line break in this codebase;
    // reset so a stray quote cannot blank the rest of the file.
    if (state == State::kString || state == State::kChar) state = State::kCode;
    out.push_back(std::move(code));
  }
  return out;
}

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One file, preprocessed for rule matching.
struct FileView {
  std::string path;  // Normalized to forward slashes.
  std::vector<std::string> raw;
  /// `raw` with comment bodies and string/char-literal contents blanked
  /// to spaces, so rules never fire on prose or literals. Block comments
  /// and raw strings carry state across lines.
  std::vector<std::string> code;
};

/// `// lint:allow(rule-a, rule-b)` — rules suppressed on this line only.
std::set<std::string> AllowedRules(const std::string& raw_line) {
  std::set<std::string> allowed;
  static constexpr std::string_view kMarker = "lint:allow(";
  size_t pos = 0;
  while ((pos = raw_line.find(kMarker, pos)) != std::string::npos) {
    size_t i = pos + kMarker.size();
    std::string id;
    for (; i < raw_line.size() && raw_line[i] != ')'; ++i) {
      const char c = raw_line[i];
      if (c == ',' ) {
        if (!id.empty()) allowed.insert(id);
        id.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        id.push_back(c);
      }
    }
    if (!id.empty()) allowed.insert(id);
    pos = i;
  }
  return allowed;
}

/// Whole-token occurrences of `token` in `line` (a character before or
/// after that would extend the identifier rejects the match; a leading
/// "::" does not, so qualified names still count).
std::vector<size_t> TokenHits(const std::string& line,
                              std::string_view token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

/// Occurrences of a C-style call `name(`. The previous character must not
/// extend the identifier and must not be '.' or '>' (member calls like
/// `sw.time()` are some other API, not libc).
std::vector<size_t> CallHits(const std::string& line, std::string_view name) {
  std::vector<size_t> hits;
  for (size_t pos : TokenHits(line, name)) {
    if (pos > 0 && (line[pos - 1] == '.' ||
                    (line[pos - 1] == '>' && pos > 1 && line[pos - 2] == '-'))) {
      continue;
    }
    size_t i = pos + name.size();
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') hits.push_back(pos);
  }
  return hits;
}

bool LineIncludesHeader(const std::string& code_line,
                        std::string_view header) {
  std::string squeezed;
  for (char c : code_line) {
    if (!std::isspace(static_cast<unsigned char>(c))) squeezed.push_back(c);
  }
  return squeezed.rfind(std::string("#include<") + std::string(header) + ">",
                        0) == 0;
}

void AddFinding(const FileView& view, size_t line_idx, const RuleInfo& rule,
                std::vector<Finding>* findings) {
  findings->push_back(Finding{view.path, static_cast<int>(line_idx) + 1,
                              rule.id, rule.summary});
}

// ---------------------------------------------------------------------------
// Rule registry. To add a rule: append an entry here, cover it in
// tests/lint_test.cc (fires + stays quiet + lint:allow), and document it
// in the DESIGN.md §11 rule table.

using RuleFn = void (*)(const FileView&, const RuleInfo&,
                        std::vector<Finding>*);

struct RuleImpl {
  RuleInfo info;
  /// Paths where the rule does not apply. An entry ending in '/' is a
  /// directory exemption and matches anywhere in the path ("bench/"
  /// exempts the whole bench harness); any other entry matches as a
  /// path suffix ("common/stopwatch.h", "_main.cc").
  std::vector<std::string> exempt_paths;
  RuleFn fn;
};

bool PathExempt(const std::string& path,
                const std::vector<std::string>& exemptions) {
  for (const std::string& entry : exemptions) {
    if (!entry.empty() && entry.back() == '/') {
      if (path.find(entry) != std::string::npos || path.rfind(entry, 0) == 0) {
        return true;
      }
    } else if (EndsWith(path, entry)) {
      return true;
    }
  }
  return false;
}

void BannedClockRule(const FileView& view, const RuleInfo& rule,
                     std::vector<Finding>* findings) {
  static const char* kTokens[] = {"system_clock",  "steady_clock",
                                  "high_resolution_clock", "gettimeofday",
                                  "clock_gettime", "localtime", "gmtime"};
  static const char* kCalls[] = {"time", "clock"};
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    for (const char* token : kTokens) {
      if (!TokenHits(line, token).empty()) AddFinding(view, i, rule, findings);
    }
    for (const char* call : kCalls) {
      if (!CallHits(line, call).empty()) AddFinding(view, i, rule, findings);
    }
  }
}

void BannedRandomRule(const FileView& view, const RuleInfo& rule,
                      std::vector<Finding>* findings) {
  static const char* kTokens[] = {"random_device", "mt19937", "mt19937_64",
                                  "default_random_engine", "minstd_rand",
                                  "minstd_rand0", "ranlux24", "ranlux48"};
  static const char* kCalls[] = {"rand", "srand", "drand48", "random"};
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    for (const char* token : kTokens) {
      if (!TokenHits(line, token).empty()) AddFinding(view, i, rule, findings);
    }
    for (const char* call : kCalls) {
      if (!CallHits(line, call).empty()) AddFinding(view, i, rule, findings);
    }
  }
}

/// Names declared in this file with an unordered container type —
/// members, locals and parameters alike. Template arguments may span
/// lines; the scan runs over the joined code text.
std::vector<std::string> UnorderedNames(const FileView& view) {
  std::string text;
  for (const std::string& line : view.code) {
    text += line;
    text += '\n';
  }
  std::vector<std::string> names;
  for (std::string_view token : {"unordered_map", "unordered_set",
                                 "unordered_multimap", "unordered_multiset"}) {
    size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
      const size_t start = pos;
      pos += token.size();
      if (start > 0 && IsIdentChar(text[start - 1])) continue;
      size_t i = pos;
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      if (i >= text.size() || text[i] != '<') continue;
      int depth = 0;
      for (; i < text.size(); ++i) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      // Skip refs/pointers/whitespace between the type and the name.
      while (i < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[i])) ||
              text[i] == '&' || text[i] == '*')) {
        ++i;
      }
      std::string name;
      while (i < text.size() && IsIdentChar(text[i])) name.push_back(text[i++]);
      if (!name.empty()) names.push_back(name);
    }
  }
  return names;
}

void UnorderedIterationRule(const FileView& view, const RuleInfo& rule,
                            std::vector<Finding>* findings) {
  const std::vector<std::string> names = UnorderedNames(view);
  if (names.empty()) return;
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    for (const std::string& name : names) {
      for (size_t pos : TokenHits(line, name)) {
        // name.begin() / name.end() / name.cbegin() / name.cend()
        size_t j = pos + name.size();
        while (j < line.size() && line[j] == ' ') ++j;
        if (j < line.size() && line[j] == '.') {
          ++j;
          while (j < line.size() && line[j] == ' ') ++j;
          for (std::string_view it : {"begin", "end", "cbegin", "cend"}) {
            if (line.compare(j, it.size(), it) == 0) {
              size_t k = j + it.size();
              while (k < line.size() && line[k] == ' ') ++k;
              if (k < line.size() && line[k] == '(') {
                AddFinding(view, i, rule, findings);
              }
              break;
            }
          }
        }
        // Range-for: `for (... : name)` — ':' before, ')' after.
        size_t before = pos;
        while (before > 0 && line[before - 1] == ' ') --before;
        const bool colon_before =
            before > 0 && line[before - 1] == ':' &&
            (before < 2 || line[before - 2] != ':');
        size_t after = pos + name.size();
        while (after < line.size() && line[after] == ' ') ++after;
        const bool paren_after = after < line.size() && line[after] == ')';
        if (colon_before && paren_after &&
            !TokenHits(line, "for").empty()) {
          AddFinding(view, i, rule, findings);
        }
      }
    }
  }
}

void NakedMutexRule(const FileView& view, const RuleInfo& rule,
                    std::vector<Finding>* findings) {
  static const char* kTokens[] = {"std::mutex", "std::shared_mutex",
                                  "std::recursive_mutex", "std::timed_mutex",
                                  "std::shared_timed_mutex"};
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    for (const char* token : kTokens) {
      if (!TokenHits(line, token).empty()) AddFinding(view, i, rule, findings);
    }
    if (LineIncludesHeader(line, "mutex") ||
        LineIncludesHeader(line, "shared_mutex")) {
      AddFinding(view, i, rule, findings);
    }
  }
}

void IostreamIncludeRule(const FileView& view, const RuleInfo& rule,
                         std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    if (LineIncludesHeader(view.code[i], "iostream")) {
      AddFinding(view, i, rule, findings);
    }
  }
}

void BannedFloatAccumRule(const FileView& view, const RuleInfo& rule,
                          std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    // `float` as a whole token covers declarations, casts and template
    // arguments alike; float32_t-style names don't match.
    if (!TokenHits(view.code[i], "float").empty()) {
      AddFinding(view, i, rule, findings);
    }
  }
}

/// `name(` occurrences including member calls (`ctx.Emit(`): the rule
/// cares that records flow out, not through which receiver.
bool HasCallToken(const std::string& line, std::string_view name) {
  for (size_t pos : TokenHits(line, name)) {
    size_t i = pos + name.size();
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') return true;
  }
  return false;
}

void UnstableSortBeforeEmitRule(const FileView& view, const RuleInfo& rule,
                                std::vector<Finding>* findings) {
  constexpr size_t kWindow = 12;
  for (size_t i = 0; i < view.code.size(); ++i) {
    bool is_std_sort = false;
    for (size_t pos : TokenHits(view.code[i], "sort")) {
      if (pos >= 5 && view.code[i].compare(pos - 5, 5, "std::") == 0) {
        is_std_sort = true;
      }
    }
    if (!is_std_sort) continue;
    const size_t last = std::min(view.code.size(), i + 1 + kWindow);
    for (size_t j = i; j < last; ++j) {
      if (HasCallToken(view.code[j], "Emit") ||
          HasCallToken(view.code[j], "WriteOutput")) {
        AddFinding(view, i, rule, findings);
        break;
      }
    }
  }
}

/// Positions of member `.size()` / `->size()` calls on a line.
std::vector<size_t> SizeCallHits(const std::string& line) {
  std::vector<size_t> hits;
  for (size_t pos : TokenHits(line, "size")) {
    if (pos == 0) continue;
    const bool member =
        line[pos - 1] == '.' ||
        (line[pos - 1] == '>' && pos > 1 && line[pos - 2] == '-');
    if (!member) continue;
    size_t i = pos + 4;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') hits.push_back(pos);
  }
  return hits;
}

/// True when the line mentions an identifier whose name contains "seed"
/// (any case): `seed`, `kSeed`, `hash_seed`, `SeedFor`, ...
bool MentionsSeedIdentifier(const std::string& line) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (IsIdentChar(line[i]) && (i == 0 || !IsIdentChar(line[i - 1]))) {
      size_t end = i;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      std::string ident = line.substr(i, end - i);
      std::transform(ident.begin(), ident.end(), ident.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (ident.find("seed") != std::string::npos) return true;
      i = end;
    }
  }
  return false;
}

void SizeDependentSeedRule(const FileView& view, const RuleInfo& rule,
                           std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    if (SizeCallHits(line).empty()) continue;
    // A `.size()` feeding a Random construction or any seed-named value
    // collapses distinct inputs of equal cardinality onto one stream and
    // silently reseeds whenever the data grows. One line of lookback
    // covers a seed expression wrapped before the `.size()` call — but
    // only when the previous line is visibly mid-expression (ends in an
    // opener or operator), so a complete `Random rng(kSeed);` statement
    // followed by an ordinary `.size()` loop stays quiet.
    bool prev_opens_seed = false;
    if (i > 0 && (!TokenHits(view.code[i - 1], "Random").empty() ||
                  MentionsSeedIdentifier(view.code[i - 1]))) {
      const std::string& prev = view.code[i - 1];
      size_t last = prev.find_last_not_of(' ');
      if (last != std::string::npos) {
        const char c = prev[last];
        prev_opens_seed = c == '(' || c == '=' || c == ',' || c == '+' ||
                          c == '^' || c == '&' || c == '|' || c == '*';
      }
    }
    if (!TokenHits(line, "Random").empty() || MentionsSeedIdentifier(line) ||
        prev_opens_seed) {
      AddFinding(view, i, rule, findings);
    }
  }
}

const std::vector<RuleImpl>& RuleRegistry() {
  static const std::vector<RuleImpl>* kRules = new std::vector<RuleImpl>{
      {{"banned-clock",
        "wall-clock read in library code; Stopwatch (common/stopwatch.h) "
        "and simulated time are the only clocks — real time breaks "
        "run-to-run determinism"},
       {"common/stopwatch.h", "bench/"},
       &BannedClockRule},
      {{"banned-random",
        "nondeterministic randomness; draw from an explicitly seeded "
        "shadoop::Random (common/random.h) so runs reproduce"},
       {"common/random.h", "common/random.cc"},
       &BannedRandomRule},
      {{"unordered-iteration",
        "iteration over a hash container; its order feeds emits and "
        "counters — use an ordered container or a sorted snapshot"},
       {},
       &UnorderedIterationRule},
      {{"naked-mutex",
        "naked std::mutex; declare shadoop::Mutex and lock via MutexLock "
        "(common/thread_annotations.h) so Clang thread-safety analysis "
        "sees the lock"},
       {},
       &NakedMutexRule},
      {{"iostream-include",
        "<iostream> in library code; log through common/logging.h "
        "(CLI mains and the bench harness print by design)"},
       {"_main.cc", "bench/"},
       &IostreamIncludeRule},
      {{"banned-float-accum",
        "float in library code; geometry accumulation is double-only — "
        "float rounding shifts MBRs, cell boundaries and dedup reference "
        "points between runs and platforms"},
       {},
       &BannedFloatAccumRule},
      {{"unstable-sort-before-emit",
        "std::sort feeding emitted output; equal-key order is "
        "unspecified and varies across libc++ versions — use "
        "std::stable_sort (or a total tie-breaking comparator) before "
        "Emit/WriteOutput"},
       {},
       &UnstableSortBeforeEmitRule},
      {{"size-dependent-seed",
        ".size() feeding a Random seed; a size-derived seed gives equal-"
        "cardinality inputs the same stream and silently reseeds when "
        "the data grows — seed from an explicit constant or a stable "
        "identity"},
       {},
       &SizeDependentSeedRule},
  };
  return *kRules;
}

}  // namespace

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": " << finding.rule << ": "
      << finding.message;
  return out.str();
}

Linter::Linter() {
  for (const RuleImpl& rule : RuleRegistry()) rules_.push_back(rule.info);
}

std::vector<Finding> Linter::LintFile(std::string_view path,
                                      std::string_view contents) const {
  FileView view;
  view.path = NormalizePath(path);
  view.raw = SplitLines(contents);
  view.code = BlankCommentsAndLiterals(view.raw);

  std::vector<Finding> findings;
  for (const RuleImpl& rule : RuleRegistry()) {
    if (PathExempt(view.path, rule.exempt_paths)) continue;
    rule.fn(view, rule.info, &findings);
  }

  // Apply per-line `lint:allow(rule)` escapes, then order by position so
  // output is stable regardless of rule registration order.
  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    const std::string& raw_line = view.raw[static_cast<size_t>(finding.line) - 1];
    if (AllowedRules(raw_line).count(finding.rule) > 0) continue;
    kept.push_back(std::move(finding));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  // One finding per (line, rule): several banned tokens on one line are
  // one problem to fix.
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.line == b.line && a.rule == b.rule;
                         }),
             kept.end());
  return kept;
}

std::vector<Finding> Linter::LintTree(const std::string& root) const {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
      paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<Finding> findings;
  if (ec) {
    findings.push_back(
        Finding{root, 0, "io-error", "cannot walk tree: " + ec.message()});
    return findings;
  }
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{NormalizePath(path), 0, "io-error",
                                 "cannot read file"});
      continue;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    std::vector<Finding> file_findings = LintFile(path, contents.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

}  // namespace shadoop::lint
