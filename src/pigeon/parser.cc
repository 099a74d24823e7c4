#include "pigeon/parser.h"

#include "common/string_util.h"
#include "pigeon/lexer.h"

namespace shadoop::pigeon {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> ParseScript() {
    Script script;
    while (Peek().type != TokenType::kEnd) {
      SHADOOP_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      script.push_back(std::move(stmt));
    }
    return script;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() { return tokens_[pos_++]; }

  Status ErrorAt(const Token& token, const std::string& message) {
    return Status::ParseError("line " + std::to_string(token.line) + ": " +
                              message);
  }

  Result<Token> Expect(TokenType type, const char* what) {
    Token token = Next();
    if (token.type != type) {
      return ErrorAt(token, std::string("expected ") + what + ", got " +
                                TokenTypeName(token.type) +
                                (token.text.empty() ? "" : " '" + token.text +
                                                              "'"));
    }
    return token;
  }

  /// Consumes an identifier and returns it upper-cased (keyword form).
  Result<std::string> Keyword() {
    SHADOOP_ASSIGN_OR_RETURN(Token token,
                             Expect(TokenType::kIdentifier, "a keyword"));
    return AsciiToUpper(token.text);
  }

  /// True (and consumes) if the next token is the given keyword.
  bool AcceptKeyword(const char* keyword) {
    if (Peek().type == TokenType::kIdentifier &&
        AsciiToUpper(Peek().text) == keyword) {
      Next();
      return true;
    }
    return false;
  }

  Result<double> Number() {
    SHADOOP_ASSIGN_OR_RETURN(Token token,
                             Expect(TokenType::kNumber, "a number"));
    return token.number;
  }

  /// Renders tokens [begin, end) back to canonical source text: token
  /// texts separated by single spaces, strings re-quoted, punctuation
  /// spelled out. Comments and original whitespace are already gone, so
  /// any two spellings with the same token stream render identically.
  std::string RenderTokens(size_t begin, size_t end) const {
    std::string out;
    for (size_t i = begin; i < end && i < tokens_.size(); ++i) {
      const Token& token = tokens_[i];
      if (token.type == TokenType::kEnd) break;
      if (!out.empty()) out.push_back(' ');
      switch (token.type) {
        case TokenType::kString:
          out += "'" + token.text + "'";
          break;
        case TokenType::kEquals:
          out += "=";
          break;
        case TokenType::kComma:
          out += ",";
          break;
        case TokenType::kSemicolon:
          out += ";";
          break;
        case TokenType::kLeftParen:
          out += "(";
          break;
        case TokenType::kRightParen:
          out += ")";
          break;
        default:  // Identifiers and numbers carry their own text.
          out += token.text;
          break;
      }
    }
    return out;
  }

  Result<Statement> ParseStatement() {
    const size_t start = pos_;
    const Token first = Peek();
    if (first.type != TokenType::kIdentifier) {
      return ErrorAt(first, "expected a statement");
    }
    Statement stmt;
    stmt.line = first.line;
    const std::string upper = AsciiToUpper(first.text);
    if (upper == "STORE") {
      Next();
      stmt.kind = Statement::Kind::kStore;
      SHADOOP_ASSIGN_OR_RETURN(
          Token name, Expect(TokenType::kIdentifier, "a dataset name"));
      stmt.target = name.text;
      SHADOOP_ASSIGN_OR_RETURN(std::string into, Keyword());
      if (into != "INTO") return ErrorAt(name, "expected INTO");
      SHADOOP_ASSIGN_OR_RETURN(Token path,
                               Expect(TokenType::kString, "a path string"));
      stmt.path = path.text;
    } else if (upper == "SET") {
      Next();
      stmt.kind = Statement::Kind::kSet;
      SHADOOP_ASSIGN_OR_RETURN(
          Token knob, Expect(TokenType::kIdentifier, "a session knob"));
      stmt.target = AsciiToUpper(knob.text);
      if (stmt.target == "TENANT") {
        SHADOOP_ASSIGN_OR_RETURN(
            Token name, Expect(TokenType::kString, "a tenant name string"));
        if (name.text.empty()) {
          return ErrorAt(knob, "tenant name must not be empty");
        }
        stmt.path = name.text;
      } else if (stmt.target == "TENANT_SLOTS" ||
                 stmt.target == "MAX_TASK_ATTEMPTS" ||
                 stmt.target == "SNAPSHOT_VERSION") {
        SHADOOP_ASSIGN_OR_RETURN(stmt.number, Number());
        if (stmt.target == "TENANT_SLOTS" && stmt.number < 0) {
          return ErrorAt(knob, "tenant_slots must be >= 0");
        }
        if (stmt.target == "MAX_TASK_ATTEMPTS" && stmt.number < 1) {
          return ErrorAt(knob, "max_task_attempts must be >= 1");
        }
        if (stmt.target == "SNAPSHOT_VERSION" && stmt.number < 0) {
          return ErrorAt(knob, "snapshot_version must be >= 0");
        }
      } else {
        return ErrorAt(knob, "unknown session knob '" + knob.text +
                                 "' (expected tenant, tenant_slots, "
                                 "max_task_attempts or snapshot_version)");
      }
    } else if (upper == "DUMP" || upper == "EXPLAIN") {
      Next();
      stmt.kind = upper == "DUMP" ? Statement::Kind::kDump
                                  : Statement::Kind::kExplain;
      SHADOOP_ASSIGN_OR_RETURN(
          Token name, Expect(TokenType::kIdentifier, "a dataset name"));
      stmt.target = name.text;
    } else {
      stmt.kind = Statement::Kind::kAssign;
      SHADOOP_ASSIGN_OR_RETURN(
          Token name, Expect(TokenType::kIdentifier, "a dataset name"));
      stmt.target = name.text;
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kEquals, "'='").status());
      SHADOOP_ASSIGN_OR_RETURN(stmt.expr, ParseExpr());
    }
    SHADOOP_RETURN_NOT_OK(Expect(TokenType::kSemicolon, "';'").status());
    stmt.text = RenderTokens(start, pos_);
    return stmt;
  }

  Result<Expr> ParseExpr() {
    const Token op_token = Peek();
    SHADOOP_ASSIGN_OR_RETURN(std::string op, Keyword());
    Expr expr;
    expr.line = op_token.line;
    if (op == "LOADINDEX") {
      expr.kind = Expr::Kind::kLoadIndex;
      SHADOOP_ASSIGN_OR_RETURN(Token path,
                               Expect(TokenType::kString, "a path string"));
      expr.path = path.text;
    } else if (op == "LOAD") {
      expr.kind = Expr::Kind::kLoad;
      SHADOOP_ASSIGN_OR_RETURN(Token path,
                               Expect(TokenType::kString, "a path string"));
      expr.path = path.text;
      SHADOOP_ASSIGN_OR_RETURN(std::string as, Keyword());
      if (as == "APPEND") {
        expr.kind = Expr::Kind::kAppend;
        SHADOOP_ASSIGN_OR_RETURN(
            Token src, Expect(TokenType::kIdentifier, "a dataset name"));
        expr.source = src.text;
      } else if (as == "AS") {
        SHADOOP_ASSIGN_OR_RETURN(std::string shape, Keyword());
        SHADOOP_ASSIGN_OR_RETURN(expr.shape, index::ParseShapeType(shape));
      } else {
        return ErrorAt(op_token, "expected AS or APPEND after LOAD path");
      }
    } else if (op == "INDEX") {
      expr.kind = Expr::Kind::kIndex;
      SHADOOP_ASSIGN_OR_RETURN(
          Token src, Expect(TokenType::kIdentifier, "a dataset name"));
      expr.source = src.text;
      SHADOOP_ASSIGN_OR_RETURN(std::string with, Keyword());
      if (with != "WITH") return ErrorAt(op_token, "expected WITH");
      SHADOOP_ASSIGN_OR_RETURN(std::string scheme, Keyword());
      if (scheme == "AUTO") {
        // The advisor picks the technique at execution time.
        expr.auto_scheme = true;
      } else {
        SHADOOP_ASSIGN_OR_RETURN(expr.scheme,
                                 index::ParsePartitionScheme(scheme));
      }
      if (AcceptKeyword("INTO")) {
        SHADOOP_ASSIGN_OR_RETURN(Token path,
                                 Expect(TokenType::kString, "a path string"));
        expr.path = path.text;
      }
    } else if (op == "RANGE" || op == "COUNT") {
      expr.kind = op == "RANGE" ? Expr::Kind::kRange : Expr::Kind::kCount;
      SHADOOP_ASSIGN_OR_RETURN(
          Token src, Expect(TokenType::kIdentifier, "a dataset name"));
      expr.source = src.text;
      SHADOOP_ASSIGN_OR_RETURN(std::string rect, Keyword());
      if (rect != "RECTANGLE") return ErrorAt(op_token, "expected RECTANGLE");
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('").status());
      double v[4];
      for (int i = 0; i < 4; ++i) {
        SHADOOP_ASSIGN_OR_RETURN(v[i], Number());
        if (i < 3) {
          SHADOOP_RETURN_NOT_OK(Expect(TokenType::kComma, "','").status());
        }
      }
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'").status());
      if (v[2] < v[0] || v[3] < v[1]) {
        return ErrorAt(op_token, "RECTANGLE bounds are inverted");
      }
      expr.range = Envelope(v[0], v[1], v[2], v[3]);
    } else if (op == "KNN") {
      expr.kind = Expr::Kind::kKnn;
      SHADOOP_ASSIGN_OR_RETURN(
          Token src, Expect(TokenType::kIdentifier, "a dataset name"));
      expr.source = src.text;
      SHADOOP_ASSIGN_OR_RETURN(std::string point, Keyword());
      if (point != "POINT") return ErrorAt(op_token, "expected POINT");
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "'('").status());
      SHADOOP_ASSIGN_OR_RETURN(double x, Number());
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kComma, "','").status());
      SHADOOP_ASSIGN_OR_RETURN(double y, Number());
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kRightParen, "')'").status());
      expr.query = Point(x, y);
      SHADOOP_ASSIGN_OR_RETURN(std::string k_kw, Keyword());
      if (k_kw != "K") return ErrorAt(op_token, "expected K <count>");
      SHADOOP_ASSIGN_OR_RETURN(double k, Number());
      if (k < 1) return ErrorAt(op_token, "K must be >= 1");
      expr.k = static_cast<size_t>(k);
    } else if (op == "SJOIN" || op == "KNNJOIN") {
      expr.kind =
          op == "SJOIN" ? Expr::Kind::kJoin : Expr::Kind::kKnnJoin;
      SHADOOP_ASSIGN_OR_RETURN(
          Token left, Expect(TokenType::kIdentifier, "a dataset name"));
      expr.source = left.text;
      SHADOOP_RETURN_NOT_OK(Expect(TokenType::kComma, "','").status());
      SHADOOP_ASSIGN_OR_RETURN(
          Token right, Expect(TokenType::kIdentifier, "a dataset name"));
      expr.source_b = right.text;
      if (expr.kind == Expr::Kind::kKnnJoin) {
        SHADOOP_ASSIGN_OR_RETURN(std::string k_kw, Keyword());
        if (k_kw != "K") return ErrorAt(op_token, "expected K <count>");
        SHADOOP_ASSIGN_OR_RETURN(double k, Number());
        if (k < 1) return ErrorAt(op_token, "K must be >= 1");
        expr.k = static_cast<size_t>(k);
      }
    } else if (op == "SKYLINE" || op == "CONVEXHULL" || op == "CLOSESTPAIR" ||
               op == "FARTHESTPAIR" || op == "UNION") {
      if (op == "SKYLINE") expr.kind = Expr::Kind::kSkyline;
      if (op == "CONVEXHULL") expr.kind = Expr::Kind::kConvexHull;
      if (op == "CLOSESTPAIR") expr.kind = Expr::Kind::kClosestPair;
      if (op == "FARTHESTPAIR") expr.kind = Expr::Kind::kFarthestPair;
      if (op == "UNION") expr.kind = Expr::Kind::kUnion;
      SHADOOP_ASSIGN_OR_RETURN(
          Token src, Expect(TokenType::kIdentifier, "a dataset name"));
      expr.source = src.text;
    } else {
      return ErrorAt(op_token, "unknown operation '" + op + "'");
    }
    return expr;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Script> Parse(std::string_view script) {
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(script));
  return Parser(std::move(tokens)).ParseScript();
}

}  // namespace shadoop::pigeon
