#include "relational/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "util/logging.h"

namespace procsim::rel {

namespace parser_internal {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsIdentChar(char c) {
  return IsIdentStart(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

Result<std::vector<LexToken>> Lex(const std::string& text) {
  std::vector<LexToken> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    LexToken token;
    token.offset = i;
    if (IsIdentStart(c)) {
      std::size_t j = i;
      while (j < text.size() && IsIdentChar(text[j])) ++j;
      token.kind = TokenKind::kIdent;
      token.text = text.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
               (c == '-' && i + 1 < text.size() &&
                std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0)) {
      std::size_t j = i + 1;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j])) != 0) {
        ++j;
      }
      token.kind = TokenKind::kInteger;
      token.text = text.substr(i, j - i);
      const std::from_chars_result parsed = std::from_chars(
          token.text.data(), token.text.data() + token.text.size(),
          token.integer);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument(
            "integer literal out of range at offset " + std::to_string(i));
      }
      i = j;
    } else if (c == '"') {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '"') ++j;
      if (j >= text.size()) {
        return Status::InvalidArgument("unterminated string at offset " +
                                       std::to_string(i));
      }
      token.kind = TokenKind::kString;
      token.text = text.substr(i + 1, j - i - 1);
      i = j + 1;
    } else if (c == '.') {
      token.kind = TokenKind::kDot;
      ++i;
    } else if (c == ',') {
      token.kind = TokenKind::kComma;
      ++i;
    } else if (c == '(') {
      token.kind = TokenKind::kLParen;
      ++i;
    } else if (c == ')') {
      token.kind = TokenKind::kRParen;
      ++i;
    } else if (c == '=' || c == '<' || c == '>' || c == '!') {
      std::string op(1, c);
      if (i + 1 < text.size() && text[i + 1] == '=') {
        op += '=';
        i += 2;
      } else {
        ++i;
      }
      if (op == "!") {
        return Status::InvalidArgument("stray '!' at offset " +
                                       std::to_string(token.offset));
      }
      token.kind = TokenKind::kOp;
      token.text = op;
    } else {
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' at offset " + std::to_string(i));
    }
    tokens.push_back(std::move(token));
  }
  LexToken end;
  end.kind = TokenKind::kEnd;
  end.offset = text.size();
  tokens.push_back(end);
  return tokens;
}

}  // namespace parser_internal

namespace {

using parser_internal::Lex;
using parser_internal::LexToken;
using parser_internal::TokenKind;

// --- AST --------------------------------------------------------------------

struct ColumnRef {
  std::string relation;
  std::string column;
};

struct Operand {
  enum class Kind { kColumn, kConstant };
  Kind kind = Kind::kConstant;
  ColumnRef column;
  Value constant;
};

struct Term {
  Operand left;
  CompareOp op = CompareOp::kEq;
  Operand right;
};

struct ParsedQuery {
  std::vector<std::string> target_relations;  ///< in appearance order
  std::vector<Term> terms;
};

Result<CompareOp> OpFromText(const std::string& text) {
  if (text == "=") return CompareOp::kEq;
  if (text == "!=") return CompareOp::kNe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == ">") return CompareOp::kGt;
  if (text == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("unknown operator " + text);
}

CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<LexToken> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Run() {
    ParsedQuery query;
    PROCSIM_RETURN_IF_ERROR(ExpectKeyword("retrieve"));
    PROCSIM_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    while (true) {
      Result<ColumnRef> target = ParseColumnRef(/*allow_all=*/true);
      if (!target.ok()) return target.status();
      const std::string& relation = target.ValueOrDie().relation;
      if (std::find(query.target_relations.begin(),
                    query.target_relations.end(),
                    relation) == query.target_relations.end()) {
        query.target_relations.push_back(relation);
      }
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    PROCSIM_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    if (Peek().kind != TokenKind::kEnd) {
      PROCSIM_RETURN_IF_ERROR(ExpectKeyword("where"));
      while (true) {
        Result<Term> term = ParseTerm();
        if (!term.ok()) return term.status();
        query.terms.push_back(term.TakeValueOrDie());
        if (Peek().kind == TokenKind::kIdent && Lower(Peek().text) == "and") {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input at offset " +
                                     std::to_string(Peek().offset));
    }
    return query;
  }

 private:
  static std::string Lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return s;
  }

  const LexToken& Peek() const { return tokens_[position_]; }
  const LexToken& Advance() { return tokens_[position_++]; }

  Status Expect(TokenKind kind, const std::string& what) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument("expected " + what + " at offset " +
                                     std::to_string(Peek().offset));
    }
    Advance();
    return Status::OK();
  }

  Status ExpectKeyword(const std::string& keyword) {
    if (Peek().kind != TokenKind::kIdent || Lower(Peek().text) != keyword) {
      return Status::InvalidArgument("expected '" + keyword + "' at offset " +
                                     std::to_string(Peek().offset));
    }
    Advance();
    return Status::OK();
  }

  Result<ColumnRef> ParseColumnRef(bool allow_all) {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected relation name at offset " +
                                     std::to_string(Peek().offset));
    }
    ColumnRef ref;
    ref.relation = Advance().text;
    PROCSIM_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected column name at offset " +
                                     std::to_string(Peek().offset));
    }
    ref.column = Advance().text;
    if (!allow_all && Lower(ref.column) == "all") {
      return Status::InvalidArgument("'.all' not allowed in qualification");
    }
    return ref;
  }

  Result<Operand> ParseOperand() {
    Operand operand;
    if (Peek().kind == TokenKind::kInteger) {
      operand.kind = Operand::Kind::kConstant;
      operand.constant = Value(Advance().integer);
      return operand;
    }
    if (Peek().kind == TokenKind::kString) {
      operand.kind = Operand::Kind::kConstant;
      operand.constant = Value(Advance().text);
      return operand;
    }
    Result<ColumnRef> ref = ParseColumnRef(/*allow_all=*/false);
    if (!ref.ok()) return ref.status();
    operand.kind = Operand::Kind::kColumn;
    operand.column = ref.TakeValueOrDie();
    return operand;
  }

  Result<Term> ParseTerm() {
    Term term;
    Result<Operand> left = ParseOperand();
    if (!left.ok()) return left.status();
    term.left = left.TakeValueOrDie();
    if (Peek().kind != TokenKind::kOp) {
      return Status::InvalidArgument("expected comparison operator at offset " +
                                     std::to_string(Peek().offset));
    }
    Result<CompareOp> op = OpFromText(Advance().text);
    if (!op.ok()) return op.status();
    term.op = op.ValueOrDie();
    Result<Operand> right = ParseOperand();
    if (!right.ok()) return right.status();
    term.right = right.TakeValueOrDie();
    return term;
  }

  std::vector<LexToken> tokens_;
  std::size_t position_ = 0;
};

// --- planner -----------------------------------------------------------------

struct BoundRestriction {
  std::string relation;
  std::size_t column;
  CompareOp op;
  Value constant;
};

struct BoundJoin {
  ColumnRef left;
  ColumnRef right;
  std::size_t left_column;
  std::size_t right_column;
  bool used = false;
};

}  // namespace

Result<ProcedureQuery> QuelParser::Parse(const std::string& text) const {
  Result<std::vector<LexToken>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(tokens.TakeValueOrDie());
  Result<ParsedQuery> parsed = parser.Run();
  if (!parsed.ok()) return parsed.status();
  const ParsedQuery& ast = parsed.ValueOrDie();

  if (ast.target_relations.empty()) {
    return Status::InvalidArgument("no target relations");
  }

  // Resolve relations and validate every column reference.
  std::map<std::string, Relation*> relations;
  for (const std::string& name : ast.target_relations) {
    Result<Relation*> relation = catalog_->GetRelation(name);
    if (!relation.ok()) return relation.status();
    relations[name] = relation.ValueOrDie();
  }
  auto resolve = [&](const ColumnRef& ref) -> Result<std::size_t> {
    auto it = relations.find(ref.relation);
    if (it == relations.end()) {
      return Status::InvalidArgument(
          "relation " + ref.relation +
          " used in qualification but not in target list");
    }
    return it->second->schema().ColumnIndex(ref.column);
  };

  // Classify terms.
  std::vector<BoundRestriction> restrictions;
  std::vector<BoundJoin> joins;
  for (const Term& term : ast.terms) {
    const bool left_col = term.left.kind == Operand::Kind::kColumn;
    const bool right_col = term.right.kind == Operand::Kind::kColumn;
    if (left_col && right_col) {
      BoundJoin join;
      join.left = term.left.column;
      join.right = term.right.column;
      if (term.op != CompareOp::kEq) {
        return Status::Unimplemented(
            "only equijoins are supported between relations");
      }
      Result<std::size_t> lc = resolve(join.left);
      if (!lc.ok()) return lc.status();
      Result<std::size_t> rc = resolve(join.right);
      if (!rc.ok()) return rc.status();
      join.left_column = lc.ValueOrDie();
      join.right_column = rc.ValueOrDie();
      if (join.left.relation == join.right.relation) {
        return Status::Unimplemented("self-join terms are not supported");
      }
      joins.push_back(join);
    } else if (left_col != right_col) {
      // Normalize to column-op-constant.
      BoundRestriction restriction;
      const Operand& col = left_col ? term.left : term.right;
      const Operand& constant = left_col ? term.right : term.left;
      restriction.relation = col.column.relation;
      Result<std::size_t> index = resolve(col.column);
      if (!index.ok()) return index.status();
      restriction.column = index.ValueOrDie();
      restriction.op = left_col ? term.op : Mirror(term.op);
      restriction.constant = constant.constant;
      restrictions.push_back(std::move(restriction));
    } else {
      return Status::Unimplemented(
          "constant-only qualification terms are not supported");
    }
  }

  // The first target relation anchors the scan and must carry a B-tree.
  const std::string& base_name = ast.target_relations.front();
  Relation* base = relations[base_name];
  if (!base->btree_column().has_value()) {
    return Status::InvalidArgument(
        "scan anchor " + base_name +
        " (first relation in target list) has no B-tree index");
  }
  const std::size_t key_column = *base->btree_column();

  ProcedureQuery query;
  query.base.relation = base_name;
  // Fold indexed-column restrictions into the interval; everything else on
  // the base becomes residual.
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<PredicateTerm> base_residual;
  std::map<std::string, std::vector<PredicateTerm>> inner_residuals;
  for (const BoundRestriction& restriction : restrictions) {
    if (restriction.relation == base_name &&
        restriction.column == key_column &&
        restriction.constant.is_int64()) {
      const int64_t value = restriction.constant.AsInt64();
      switch (restriction.op) {
        case CompareOp::kEq:
          lo = std::max(lo, value);
          hi = std::min(hi, value);
          continue;
        case CompareOp::kGe:
          lo = std::max(lo, value);
          continue;
        case CompareOp::kGt:
          lo = std::max(lo, value + 1);
          continue;
        case CompareOp::kLe:
          hi = std::min(hi, value);
          continue;
        case CompareOp::kLt:
          hi = std::min(hi, value - 1);
          continue;
        case CompareOp::kNe:
          break;  // cannot fold into one interval; screen instead
      }
    }
    PredicateTerm term{restriction.column, restriction.op,
                       restriction.constant};
    if (restriction.relation == base_name) {
      base_residual.push_back(std::move(term));
    } else {
      inner_residuals[restriction.relation].push_back(std::move(term));
    }
  }
  query.base.lo = lo;
  query.base.hi = hi;
  query.base.residual = Conjunction(std::move(base_residual));

  // Chain the remaining relations with hash joins: repeatedly pick an
  // unused equijoin connecting a bound relation to an unbound one.
  std::set<std::string> bound{base_name};
  std::map<std::string, std::size_t> offsets;  // start of segment in output
  offsets[base_name] = 0;
  std::size_t width = base->schema().num_columns();
  while (bound.size() < relations.size()) {
    bool progressed = false;
    for (BoundJoin& join : joins) {
      if (join.used) continue;
      ColumnRef outer = join.left;
      ColumnRef inner = join.right;
      std::size_t outer_col = join.left_column;
      std::size_t inner_col = join.right_column;
      if (bound.contains(inner.relation) && !bound.contains(outer.relation)) {
        std::swap(outer, inner);
        std::swap(outer_col, inner_col);
      }
      if (!bound.contains(outer.relation) || bound.contains(inner.relation)) {
        continue;
      }
      Relation* inner_rel = relations[inner.relation];
      if (!inner_rel->hash_column().has_value() ||
          *inner_rel->hash_column() != inner_col) {
        return Status::InvalidArgument(
            "join into " + inner.relation + "." + inner.column +
            " requires a hash index on that column");
      }
      JoinStage stage;
      stage.relation = inner.relation;
      stage.probe_column = offsets[outer.relation] + outer_col;
      auto residual_it = inner_residuals.find(inner.relation);
      if (residual_it != inner_residuals.end()) {
        stage.residual = Conjunction(std::move(residual_it->second));
        inner_residuals.erase(residual_it);
      }
      query.joins.push_back(std::move(stage));
      offsets[inner.relation] = width;
      width += inner_rel->schema().num_columns();
      bound.insert(inner.relation);
      join.used = true;
      progressed = true;
      break;
    }
    if (!progressed) {
      return Status::InvalidArgument(
          "join graph does not connect every target relation to " +
          base_name);
    }
  }
  for (const BoundJoin& join : joins) {
    if (!join.used) {
      return Status::Unimplemented(
          "redundant join term between already-joined relations: " +
          join.left.relation + "." + join.left.column + " = " +
          join.right.relation + "." + join.right.column);
    }
  }
  if (!inner_residuals.empty()) {
    return Status::Internal("unattached residual restrictions");
  }
  return query;
}

}  // namespace procsim::rel
