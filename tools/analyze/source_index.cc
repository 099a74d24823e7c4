#include "analyze/source_index.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/lint_engine.h"

namespace shadoop::analyze {
namespace {

using lint::BlankCommentsAndLiterals;
using lint::IsIdentChar;
using lint::NormalizePath;
using lint::SplitLines;

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/// Include directives are read from the *raw* lines (the blanked text
/// has lost the quoted path), but only on lines whose blanked form
/// still starts with '#' — a directive quoted inside a comment is gone
/// after blanking and must not count.
std::vector<IncludeEdge> ExtractIncludes(const std::vector<std::string>& raw,
                                         const std::vector<std::string>& code) {
  std::vector<IncludeEdge> edges;
  for (size_t i = 0; i < raw.size(); ++i) {
    const std::string& c = code[i];
    size_t k = c.find_first_not_of(" \t");
    if (k == std::string::npos || c[k] != '#') continue;
    const std::string& r = raw[i];
    size_t pos = r.find("include");
    if (pos == std::string::npos) continue;
    pos += 7;
    while (pos < r.size() &&
           std::isspace(static_cast<unsigned char>(r[pos]))) {
      ++pos;
    }
    if (pos >= r.size()) continue;
    char open = r[pos];
    char close = open == '"' ? '"' : open == '<' ? '>' : '\0';
    if (close == '\0') continue;
    size_t end = r.find(close, pos + 1);
    if (end == std::string::npos) continue;
    IncludeEdge edge;
    edge.spec = r.substr(pos + 1, end - pos - 1);
    edge.quoted = open == '"';
    edge.line = static_cast<int>(i) + 1;
    edges.push_back(std::move(edge));
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Tokenizer

struct Token {
  std::string text;
  int line = 0;  // 1-based.
  bool ident = false;
};

/// Tokenizes the blanked code. Preprocessor lines (and their backslash
/// continuations) are skipped entirely: macro bodies routinely contain
/// unbalanced-looking fragments that would corrupt the brace tracking.
std::vector<Token> Tokenize(const std::vector<std::string>& code) {
  std::vector<Token> toks;
  bool continuation = false;
  for (size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    const bool was_continuation = continuation;
    continuation = !line.empty() && line.back() == '\\';
    if (was_continuation) continue;
    size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    const int lineno = static_cast<int>(li) + 1;
    for (size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsIdentStart(c)) {
        size_t j = i;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        toks.push_back({line.substr(i, j - i), lineno, true});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < line.size() && (IsIdentChar(line[j]) || line[j] == '.')) {
          ++j;
        }
        toks.push_back({line.substr(i, j - i), lineno, false});
        i = j;
        continue;
      }
      // Two-char tokens the parser cares about.
      if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        toks.push_back({"::", lineno, false});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < line.size() && line[i + 1] == '>') {
        toks.push_back({"->", lineno, false});
        i += 2;
        continue;
      }
      toks.push_back({std::string(1, c), lineno, false});
      ++i;
    }
  }
  return toks;
}

/// Identifiers that look like a call/definition head but are control
/// flow, operators or primitive-type syntax.
bool IsReservedHead(const std::string& ident) {
  static const char* kReserved[] = {
      "if",       "else",     "for",      "while",    "do",
      "switch",   "case",     "return",   "sizeof",   "alignof",
      "decltype", "static_assert",        "new",      "delete",
      "throw",    "catch",    "constexpr","noexcept", "template",
      "typename", "using",    "namespace","class",    "struct",
      "enum",     "union",    "public",   "private",  "protected",
      "const",    "static",   "inline",   "virtual",  "explicit",
      "void",     "int",      "bool",     "char",     "double",
      "long",     "short",    "unsigned", "signed",   "auto",
      "float",    "defined",  "requires", "alignas",  "co_return",
      "co_await", "co_yield", "goto",     "typedef",  "assert"};
  for (const char* r : kReserved) {
    if (ident == r) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parser: one forward pass over the token stream per file, tracking a
// scope stack (namespace/class/function/other) and, at non-function
// scope, a "candidate signature" armed by `ident (...)` and confirmed
// by a following '{' (possibly across const/noexcept/override/trailing
// return/ctor-initializer tokens).

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kOther } kind = kOther;
  std::string name;   // Class name for kClass.
  int func = -1;      // functions_ index for kFunction.
};

class FileParser {
 public:
  FileParser(int file_id, const std::vector<Token>& toks,
             std::vector<FunctionInfo>* functions)
      : file_(file_id), toks_(toks), functions_(functions) {}

  std::vector<int> Parse() {
    for (size_t i = 0; i < toks_.size(); ++i) Step(i);
    // Close any function left open by unbalanced input.
    while (!scopes_.empty()) PopScope(toks_.empty() ? 0 : toks_.back().line);
    return defined_;
  }

 private:
  enum class Sig { kNone, kInParams, kArmed, kInitList };

  const Token& T(size_t i) const { return toks_[i]; }

  bool InFunction() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return true;
    }
    return false;
  }

  int EnclosingFunction() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return it->func;
    }
    return -1;
  }

  std::string EnclosingClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }

  void PopScope(int line) {
    if (scopes_.empty()) return;
    if (scopes_.back().kind == Scope::kFunction && scopes_.back().func >= 0) {
      (*functions_)[static_cast<size_t>(scopes_.back().func)].body_end = line;
    }
    scopes_.pop_back();
  }

  /// The `A::B::` qualifier chain written immediately before token i.
  std::string QualifierBefore(size_t i) const {
    std::string qual;
    size_t j = i;
    while (j >= 2 && T(j - 1).text == "::" && T(j - 2).ident) {
      qual = T(j - 2).text + (qual.empty() ? "" : "::" + qual);
      j -= 2;
    }
    return qual;
  }

  void RecordCall(size_t i) {
    const int func = EnclosingFunction();
    if (func < 0) return;
    const std::string& name = T(i).text;
    if (IsReservedHead(name)) return;
    CallSite call;
    call.name = name;
    call.line = T(i).line;
    const std::string qual = QualifierBefore(i);
    if (!qual.empty()) call.qualified = qual + "::" + name;
    (*functions_)[static_cast<size_t>(func)].calls.push_back(std::move(call));
  }

  /// Classifies an unexplained '{' at non-function scope by scanning
  /// back to the previous statement boundary.
  Scope ClassifyBrace(size_t i) const {
    Scope scope;
    scope.kind = Scope::kOther;
    size_t j = i;
    while (j > 0) {
      const Token& t = T(j - 1);
      if (t.text == ";" || t.text == "{" || t.text == "}") break;
      if (t.text == "=") return scope;  // Aggregate initializer.
      if (t.ident && t.text == "namespace") {
        scope.kind = Scope::kNamespace;
        if (j < i && T(j).ident) scope.name = T(j).text;
        return scope;
      }
      if (t.ident && (t.text == "class" || t.text == "struct" ||
                      t.text == "union" || t.text == "enum")) {
        scope.kind = Scope::kClass;
        // The name is the last identifier before '{' or a base-list ':'.
        for (size_t k = j; k < i; ++k) {
          if (T(k).text == ":") break;
          if (T(k).ident && !IsReservedHead(T(k).text)) scope.name = T(k).text;
        }
        return scope;
      }
      --j;
    }
    return scope;
  }

  void StartFunction(size_t brace_index) {
    FunctionInfo fn;
    fn.name = cand_name_;
    fn.qualified = cand_qualified_;
    if (fn.qualified.empty()) {
      const std::string cls = EnclosingClass();
      fn.qualified = cls.empty() ? fn.name : cls + "::" + fn.name;
    }
    fn.file = file_;
    fn.line = cand_line_;
    fn.body_begin = T(brace_index).line;
    fn.body_end = T(brace_index).line;
    const int id = static_cast<int>(functions_->size());
    functions_->push_back(std::move(fn));
    defined_.push_back(id);
    Scope scope;
    scope.kind = Scope::kFunction;
    scope.func = id;
    scopes_.push_back(scope);
    sig_ = Sig::kNone;
  }

  void Step(size_t i) {
    const Token& t = T(i);
    if (InFunction()) {
      if (t.text == "{") {
        scopes_.push_back(Scope{Scope::kOther, "", -1});
      } else if (t.text == "}") {
        PopScope(t.line);
      } else if (t.ident && i + 1 < toks_.size() && T(i + 1).text == "(") {
        RecordCall(i);
      }
      return;
    }

    switch (sig_) {
      case Sig::kNone:
        if (t.ident && !IsReservedHead(t.text) && i + 1 < toks_.size() &&
            T(i + 1).text == "(") {
          cand_name_ = t.text;
          cand_line_ = t.line;
          cand_qualified_.clear();
          const std::string qual = QualifierBefore(i);
          if (!qual.empty()) cand_qualified_ = qual + "::" + t.text;
          sig_ = Sig::kInParams;
          paren_depth_ = 0;  // The '(' itself is the next token.
        } else if (t.text == "{") {
          scopes_.push_back(ClassifyBrace(i));
        } else if (t.text == "}") {
          PopScope(t.line);
        }
        break;
      case Sig::kInParams:
        if (t.text == "(") {
          ++paren_depth_;
        } else if (t.text == ")") {
          if (--paren_depth_ == 0) sig_ = Sig::kArmed;
        } else if (t.text == ";" || t.text == "}") {
          sig_ = Sig::kNone;  // Malformed; resync.
          if (t.text == "}") PopScope(t.line);
        }
        break;
      case Sig::kArmed:
        if (t.text == "{") {
          StartFunction(i);
        } else if (t.text == ";") {
          sig_ = Sig::kNone;  // Declaration only.
        } else if (t.text == "(") {
          // Second parameter list (operator()(...), macro qualifiers
          // like SHADOOP_EXCLUDES(mu_)). Same candidate, keep going.
          sig_ = Sig::kInParams;
          paren_depth_ = 1;
        } else if (t.text == ":") {
          sig_ = Sig::kInitList;
          paren_depth_ = 0;
        } else if (t.text == "=") {
          // `= default` / `= delete` / a variable that looked like a
          // signature — either way the next ';' ends it.
          sig_ = Sig::kNone;
        } else if (t.text == "}") {
          sig_ = Sig::kNone;
          PopScope(t.line);
        }
        break;
      case Sig::kInitList:
        if (t.text == "(") {
          ++paren_depth_;
        } else if (t.text == ")") {
          --paren_depth_;
        } else if (t.text == "{" && paren_depth_ == 0) {
          // Brace-init of a member (`x_{1}`) follows an identifier or a
          // closing template '>'; the function body never does.
          if (i > 0 && (T(i - 1).ident || T(i - 1).text == ">")) {
            int depth = 1;
            while (++i < toks_.size() && depth > 0) {
              if (T(i).text == "{") ++depth;
              if (T(i).text == "}") --depth;
            }
          } else {
            StartFunction(i);
          }
        } else if (t.text == ";") {
          sig_ = Sig::kNone;
        }
        break;
    }
  }

  int file_;
  const std::vector<Token>& toks_;
  std::vector<FunctionInfo>* functions_;
  std::vector<Scope> scopes_;
  std::vector<int> defined_;

  Sig sig_ = Sig::kNone;
  std::string cand_name_;
  std::string cand_qualified_;
  int cand_line_ = 0;
  int paren_depth_ = 0;
};

}  // namespace

std::string RepoRelative(std::string_view path) {
  const std::string norm = NormalizePath(path);
  static const char* kRoots[] = {"src/", "tools/", "bench/", "tests/",
                                 "examples/"};
  for (const char* root : kRoots) {
    if (norm.rfind(root, 0) == 0) return norm;
  }
  size_t best = std::string::npos;
  for (const char* root : kRoots) {
    const std::string marker = std::string("/") + root;
    const size_t pos = norm.rfind(marker);
    if (pos != std::string::npos && (best == std::string::npos || pos > best)) {
      best = pos;
    }
  }
  if (best != std::string::npos) return norm.substr(best + 1);
  return norm;
}

std::string ModuleOf(std::string_view repo_path) {
  const std::string path(repo_path);
  auto segment = [&](size_t from) -> std::string {
    const size_t slash = path.find('/', from);
    if (slash == std::string::npos) return "";
    return path.substr(from, slash - from);
  };
  if (path.rfind("src/", 0) == 0) return segment(4);
  if (path.rfind("tools/", 0) == 0) {
    const std::string sub = segment(6);
    return sub.empty() ? "tools" : "tools/" + sub;
  }
  for (const char* top : {"bench", "tests", "examples"}) {
    if (path.rfind(std::string(top) + "/", 0) == 0) return top;
  }
  return "";
}

void SourceIndex::AddFile(std::string_view path, std::string_view contents) {
  FileInfo file;
  file.path = NormalizePath(path);
  file.repo_path = RepoRelative(file.path);
  file.module = ModuleOf(file.repo_path);
  file.in_src = file.repo_path.rfind("src/", 0) == 0;
  file.raw = SplitLines(contents);
  file.code = BlankCommentsAndLiterals(file.raw);
  file.includes = ExtractIncludes(file.raw, file.code);

  const int file_id = static_cast<int>(files_.size());
  const std::vector<Token> toks = Tokenize(file.code);
  FileParser parser(file_id, toks, &functions_);
  file.functions = parser.Parse();
  files_.push_back(std::move(file));
}

bool SourceIndex::AddTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) return false;
    if (!it->is_regular_file(ec)) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
      paths.push_back(it->path().string());
    }
  }
  if (ec) return false;
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream contents;
    contents << in.rdbuf();
    AddFile(path, contents.str());
  }
  return true;
}

int SourceIndex::ResolveInclude(int from_file, const IncludeEdge& edge) const {
  if (!edge.quoted && edge.spec.find('/') == std::string::npos) {
    return -1;  // <vector> and friends.
  }
  auto find_repo = [&](const std::string& repo) -> int {
    for (size_t i = 0; i < files_.size(); ++i) {
      if (files_[i].repo_path == repo) return static_cast<int>(i);
    }
    return -1;
  };
  // Project-layout roots first: src/ for the runtime, tools/ for the
  // analysis binaries themselves.
  for (const char* prefix : {"src/", "tools/", ""}) {
    const int hit = find_repo(prefix + edge.spec);
    if (hit >= 0) return hit;
  }
  // Same-directory includes ("bench_common.h") and anything else: a
  // unique "/spec" suffix match.
  const std::string& from = files_[static_cast<size_t>(from_file)].repo_path;
  const size_t slash = from.rfind('/');
  if (slash != std::string::npos) {
    const int hit = find_repo(from.substr(0, slash + 1) + edge.spec);
    if (hit >= 0) return hit;
  }
  const std::string suffix = "/" + edge.spec;
  int match = -1;
  for (size_t i = 0; i < files_.size(); ++i) {
    const std::string& repo = files_[i].repo_path;
    if (repo.size() > suffix.size() &&
        repo.compare(repo.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      if (match >= 0) return -1;  // Ambiguous.
      match = static_cast<int>(i);
    }
  }
  return match;
}

}  // namespace shadoop::analyze
