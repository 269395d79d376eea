#include "sql/parser.h"

#include "common/string_util.h"
#include "data/value.h"
#include "sql/lexer.h"

namespace llmdm::sql {
namespace {

bool IsAggregateName(const std::string& upper) {
  return upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
         upper == "MIN" || upper == "MAX";
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  common::Result<Statement> ParseSingleStatement() {
    LLMDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInternal());
    ConsumeIf(TokenType::kSemicolon);
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing tokens");
    }
    return stmt;
  }

  common::Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    for (;;) {
      while (ConsumeIf(TokenType::kSemicolon)) {
      }
      if (Peek().type == TokenType::kEnd) break;
      LLMDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInternal());
      out.push_back(std::move(stmt));
      if (Peek().type != TokenType::kEnd &&
          !ConsumeIf(TokenType::kSemicolon)) {
        return Error("expected ';' between statements");
      }
    }
    return out;
  }

  common::Result<std::unique_ptr<SelectStmt>> ParseSelectOnly() {
    LLMDM_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelectStmt());
    ConsumeIf(TokenType::kSemicolon);
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing tokens");
    }
    return sel;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool ConsumeIf(TokenType type) {
    if (Peek().type == type) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  common::Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return Error(common::StrFormat("expected %s", std::string(kw).c_str()));
    }
    return common::Status::Ok();
  }
  common::Status Expect(TokenType type, const char* what) {
    if (!ConsumeIf(type)) {
      return Error(common::StrFormat("expected %s", what));
    }
    return common::Status::Ok();
  }

  common::Status Error(const std::string& what) const {
    return common::Status::InvalidArgument(common::StrFormat(
        "SQL parse error near offset %zu (token '%s'): %s", Peek().offset,
        Peek().text.c_str(), what.c_str()));
  }

  // ---- statements ----

  common::Result<Statement> ParseStatementInternal() {
    Statement stmt;
    const Token& t = Peek();
    if (t.IsKeyword("SELECT")) {
      stmt.kind = StatementKind::kSelect;
      LLMDM_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
      return stmt;
    }
    if (t.IsKeyword("CREATE")) {
      stmt.kind = StatementKind::kCreateTable;
      LLMDM_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
      return stmt;
    }
    if (t.IsKeyword("DROP")) {
      stmt.kind = StatementKind::kDropTable;
      LLMDM_ASSIGN_OR_RETURN(stmt.drop_table, ParseDropTable());
      return stmt;
    }
    if (t.IsKeyword("INSERT")) {
      stmt.kind = StatementKind::kInsert;
      LLMDM_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
      return stmt;
    }
    if (t.IsKeyword("UPDATE")) {
      stmt.kind = StatementKind::kUpdate;
      LLMDM_ASSIGN_OR_RETURN(stmt.update, ParseUpdate());
      return stmt;
    }
    if (t.IsKeyword("DELETE")) {
      stmt.kind = StatementKind::kDelete;
      LLMDM_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
      return stmt;
    }
    if (t.IsKeyword("BEGIN")) {
      Advance();
      ConsumeKeyword("TRANSACTION");
      stmt.kind = StatementKind::kBegin;
      return stmt;
    }
    if (t.IsKeyword("COMMIT")) {
      Advance();
      stmt.kind = StatementKind::kCommit;
      return stmt;
    }
    if (t.IsKeyword("ROLLBACK")) {
      Advance();
      stmt.kind = StatementKind::kRollback;
      return stmt;
    }
    return Error("expected a statement");
  }

  common::Result<std::string> ParseIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected identifier");
    }
    return Advance().text;
  }

  common::Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    LLMDM_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    LLMDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    for (;;) {
      data::Column col;
      LLMDM_ASSIGN_OR_RETURN(col.name, ParseIdentifier());
      const Token& type_tok = Peek();
      if (type_tok.type != TokenType::kKeyword &&
          type_tok.type != TokenType::kIdentifier) {
        return Error("expected column type");
      }
      std::string type_name = common::ToUpper(Advance().text);
      if (type_name == "INT" || type_name == "INTEGER") {
        col.type = data::ColumnType::kInt64;
      } else if (type_name == "DOUBLE" || type_name == "REAL" ||
                 type_name == "FLOAT") {
        col.type = data::ColumnType::kDouble;
      } else if (type_name == "TEXT" || type_name == "VARCHAR") {
        col.type = data::ColumnType::kText;
        // Optional VARCHAR(n); length is ignored.
        if (ConsumeIf(TokenType::kLParen)) {
          if (Peek().type == TokenType::kInteger) Advance();
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        }
      } else if (type_name == "BOOL" || type_name == "BOOLEAN") {
        col.type = data::ColumnType::kBool;
      } else if (type_name == "DATE") {
        col.type = data::ColumnType::kDate;
      } else {
        return Error("unknown column type " + type_name);
      }
      // Optional column constraints we accept: NOT NULL, PRIMARY KEY.
      for (;;) {
        if (ConsumeKeyword("NOT")) {
          LLMDM_RETURN_IF_ERROR(ExpectKeyword("NULL"));
          col.nullable = false;
        } else if (ConsumeKeyword("PRIMARY")) {
          LLMDM_RETURN_IF_ERROR(ExpectKeyword("KEY"));
          col.nullable = false;
        } else {
          break;
        }
      }
      stmt->columns.push_back(std::move(col));
      if (ConsumeIf(TokenType::kComma)) continue;
      LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      break;
    }
    return stmt;
  }

  common::Result<std::unique_ptr<DropTableStmt>> ParseDropTable() {
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (ConsumeKeyword("IF")) {
      LLMDM_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt->if_exists = true;
    }
    LLMDM_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    return stmt;
  }

  common::Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    LLMDM_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    if (ConsumeIf(TokenType::kLParen)) {
      for (;;) {
        LLMDM_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt->columns.push_back(std::move(col));
        if (ConsumeIf(TokenType::kComma)) continue;
        LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        break;
      }
    }
    if (Peek().IsKeyword("SELECT")) {
      LLMDM_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
      return stmt;
    }
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    for (;;) {
      LLMDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      std::vector<ExprPtr> row;
      for (;;) {
        LLMDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (ConsumeIf(TokenType::kComma)) continue;
        LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        break;
      }
      stmt->rows.push_back(std::move(row));
      if (!ConsumeIf(TokenType::kComma)) break;
    }
    return stmt;
  }

  common::Result<std::unique_ptr<UpdateStmt>> ParseUpdate() {
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    LLMDM_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("SET"));
    for (;;) {
      LLMDM_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
      if (!Peek().IsOperator("=")) return Error("expected '='");
      Advance();
      LLMDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
      if (!ConsumeIf(TokenType::kComma)) break;
    }
    if (ConsumeKeyword("WHERE")) {
      LLMDM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  common::Result<std::unique_ptr<DeleteStmt>> ParseDelete() {
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    LLMDM_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    if (ConsumeKeyword("WHERE")) {
      LLMDM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  // ---- SELECT ----

  common::Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    LLMDM_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> lhs, ParseSelectCore());
    // Set operations are left-associative.
    for (;;) {
      SetOp op = SetOp::kNone;
      if (ConsumeKeyword("UNION")) {
        op = ConsumeKeyword("ALL") ? SetOp::kUnionAll : SetOp::kUnion;
      } else if (ConsumeKeyword("INTERSECT")) {
        op = SetOp::kIntersect;
      } else if (ConsumeKeyword("EXCEPT")) {
        op = SetOp::kExcept;
      } else {
        break;
      }
      LLMDM_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> rhs, ParseSelectCore());
      auto combined = std::make_unique<SelectStmt>();
      // Represent the chain by nesting on the left select's set_rhs.
      combined = std::move(lhs);
      // Walk to the tail of any existing chain.
      SelectStmt* tail = combined.get();
      while (tail->set_rhs) tail = tail->set_rhs.get();
      tail->set_op = op;
      tail->set_rhs = std::move(rhs);
      lhs = std::move(combined);
    }
    return lhs;
  }

  common::Result<std::unique_ptr<SelectStmt>> ParseSelectCore() {
    // A parenthesized SELECT is allowed as a set-op operand.
    if (Peek().type == TokenType::kLParen && Peek(1).IsKeyword("SELECT")) {
      Advance();
      LLMDM_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> inner,
                             ParseSelectStmt());
      LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto sel = std::make_unique<SelectStmt>();
    if (ConsumeKeyword("DISTINCT")) sel->distinct = true;
    ConsumeKeyword("ALL");
    // Select list.
    for (;;) {
      SelectItem item;
      if (Peek().IsOperator("*")) {
        Advance();
        item.expr = MakeStar();
      } else {
        LLMDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          LLMDM_ASSIGN_OR_RETURN(item.alias, ParseIdentifier());
        } else if (Peek().type == TokenType::kIdentifier) {
          item.alias = Advance().text;
        }
      }
      sel->items.push_back(std::move(item));
      if (!ConsumeIf(TokenType::kComma)) break;
    }
    if (ConsumeKeyword("FROM")) {
      for (;;) {
        LLMDM_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRef());
        sel->from.push_back(std::move(ref));
        if (!ConsumeIf(TokenType::kComma)) break;
      }
    }
    if (ConsumeKeyword("WHERE")) {
      LLMDM_ASSIGN_OR_RETURN(sel->where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      LLMDM_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        LLMDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        sel->group_by.push_back(std::move(e));
        if (!ConsumeIf(TokenType::kComma)) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      LLMDM_ASSIGN_OR_RETURN(sel->having, ParseExpr());
    }
    if (ConsumeKeyword("ORDER")) {
      LLMDM_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        OrderItem item;
        LLMDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        sel->order_by.push_back(std::move(item));
        if (!ConsumeIf(TokenType::kComma)) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("expected integer after LIMIT");
      }
      sel->limit = Advance().int_value;
    }
    return sel;
  }

  common::Result<TableRefPtr> ParseTableRef() {
    LLMDM_ASSIGN_OR_RETURN(TableRefPtr left, ParseTableFactor());
    for (;;) {
      JoinType jt;
      bool has_on = true;
      if (ConsumeKeyword("JOIN")) {
        jt = JoinType::kInner;
      } else if (Peek().IsKeyword("INNER") && Peek(1).IsKeyword("JOIN")) {
        Advance();
        Advance();
        jt = JoinType::kInner;
      } else if (Peek().IsKeyword("LEFT")) {
        Advance();
        ConsumeKeyword("OUTER");
        LLMDM_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jt = JoinType::kLeft;
      } else if (Peek().IsKeyword("CROSS") && Peek(1).IsKeyword("JOIN")) {
        Advance();
        Advance();
        jt = JoinType::kCross;
        has_on = false;
      } else {
        break;
      }
      LLMDM_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableFactor());
      auto join = std::make_unique<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->join_type = jt;
      join->left = std::move(left);
      join->right = std::move(right);
      if (has_on) {
        LLMDM_RETURN_IF_ERROR(ExpectKeyword("ON"));
        LLMDM_ASSIGN_OR_RETURN(join->on, ParseExpr());
      }
      left = std::move(join);
    }
    return left;
  }

  common::Result<TableRefPtr> ParseTableFactor() {
    auto ref = std::make_unique<TableRef>();
    if (ConsumeIf(TokenType::kLParen)) {
      ref->kind = TableRef::Kind::kSubquery;
      LLMDM_ASSIGN_OR_RETURN(ref->subquery, ParseSelectStmt());
      LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    } else {
      ref->kind = TableRef::Kind::kBase;
      LLMDM_ASSIGN_OR_RETURN(ref->table_name, ParseIdentifier());
    }
    if (ConsumeKeyword("AS")) {
      LLMDM_ASSIGN_OR_RETURN(ref->alias, ParseIdentifier());
    } else if (Peek().type == TokenType::kIdentifier) {
      ref->alias = Advance().text;
    }
    return ref;
  }

  // ---- expressions (precedence climbing) ----

  common::Result<ExprPtr> ParseExpr() { return ParseOr(); }

  common::Result<ExprPtr> ParseOr() {
    LLMDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      LLMDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  common::Result<ExprPtr> ParseAnd() {
    LLMDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (ConsumeKeyword("AND")) {
      LLMDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  common::Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      LLMDM_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return MakeUnary("NOT", std::move(operand));
    }
    return ParseComparison();
  }

  common::Result<ExprPtr> ParseComparison() {
    LLMDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    for (;;) {
      const Token& t = Peek();
      if (t.type == TokenType::kOperator &&
          (t.text == "=" || t.text == "<>" || t.text == "<" ||
           t.text == "<=" || t.text == ">" || t.text == ">=")) {
        std::string op = Advance().text;
        LLMDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        lhs = MakeBinary(std::move(op), std::move(lhs), std::move(rhs));
        continue;
      }
      bool negated = false;
      size_t save = pos_;
      if (ConsumeKeyword("NOT")) {
        negated = true;
        if (!Peek().IsKeyword("IN") && !Peek().IsKeyword("LIKE") &&
            !Peek().IsKeyword("BETWEEN")) {
          pos_ = save;  // NOT belongs to an enclosing context
          break;
        }
      }
      if (ConsumeKeyword("IS")) {
        bool is_not = ConsumeKeyword("NOT");
        LLMDM_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kIsNull;
        e->negated = is_not;
        e->args.push_back(std::move(lhs));
        lhs = std::move(e);
        continue;
      }
      if (ConsumeKeyword("LIKE")) {
        LLMDM_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kLike;
        e->negated = negated;
        e->args.push_back(std::move(lhs));
        e->args.push_back(std::move(pattern));
        lhs = std::move(e);
        continue;
      }
      if (ConsumeKeyword("BETWEEN")) {
        LLMDM_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
        LLMDM_RETURN_IF_ERROR(ExpectKeyword("AND"));
        LLMDM_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kBetween;
        e->negated = negated;
        e->args.push_back(std::move(lhs));
        e->args.push_back(std::move(lo));
        e->args.push_back(std::move(hi));
        lhs = std::move(e);
        continue;
      }
      if (ConsumeKeyword("IN")) {
        LLMDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        if (Peek().IsKeyword("SELECT")) {
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kInSubquery;
          e->negated = negated;
          e->args.push_back(std::move(lhs));
          LLMDM_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          lhs = std::move(e);
        } else {
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kInList;
          e->negated = negated;
          e->args.push_back(std::move(lhs));
          for (;;) {
            LLMDM_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
            e->args.push_back(std::move(item));
            if (!ConsumeIf(TokenType::kComma)) break;
          }
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          lhs = std::move(e);
        }
        continue;
      }
      if (negated) {
        pos_ = save;
      }
      break;
    }
    return lhs;
  }

  common::Result<ExprPtr> ParseAdditive() {
    LLMDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      if (Peek().IsOperator("+") || Peek().IsOperator("-")) {
        std::string op = Advance().text;
        LLMDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = MakeBinary(std::move(op), std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  common::Result<ExprPtr> ParseMultiplicative() {
    LLMDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      if (Peek().IsOperator("*") || Peek().IsOperator("/") ||
          Peek().IsOperator("%")) {
        std::string op = Advance().text;
        LLMDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
        lhs = MakeBinary(std::move(op), std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  common::Result<ExprPtr> ParseUnary() {
    if (Peek().IsOperator("-")) {
      Advance();
      LLMDM_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeUnary("-", std::move(operand));
    }
    if (Peek().IsOperator("+")) {
      Advance();
      return ParseUnary();
    }
    return ParsePrimary();
  }

  common::Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
        Advance();
        return MakeLiteral(data::Value::Int(t.int_value));
      case TokenType::kFloat:
        Advance();
        return MakeLiteral(data::Value::Real(t.float_value));
      case TokenType::kString:
        Advance();
        return MakeLiteral(data::Value::Text(t.text));
      case TokenType::kLParen: {
        Advance();
        if (Peek().IsKeyword("SELECT")) {
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kScalarSubquery;
          LLMDM_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return e;
        }
        LLMDM_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      case TokenType::kKeyword: {
        if (t.text == "NULL") {
          Advance();
          return MakeLiteral(data::Value::Null());
        }
        if (t.text == "TRUE") {
          Advance();
          return MakeLiteral(data::Value::Bool(true));
        }
        if (t.text == "FALSE") {
          Advance();
          return MakeLiteral(data::Value::Bool(false));
        }
        if (t.text == "DATE" && Peek(1).type == TokenType::kString) {
          Advance();
          const Token& lit = Advance();
          data::Date d;
          if (!data::ParseIsoDate(lit.text, &d)) {
            return Error("bad DATE literal " + lit.text);
          }
          return MakeLiteral(data::Value::MakeDate(d));
        }
        if (t.text == "CASE") {
          return ParseCase();
        }
        if (t.text == "EXISTS") {
          Advance();
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kExists;
          LLMDM_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return e;
        }
        if (IsAggregateName(t.text)) {
          std::string agg = Advance().text;
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
          bool distinct = ConsumeKeyword("DISTINCT");
          ExprPtr arg;
          if (Peek().IsOperator("*")) {
            Advance();
            arg = MakeStar();
          } else {
            LLMDM_ASSIGN_OR_RETURN(arg, ParseExpr());
          }
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return MakeAggregate(std::move(agg), std::move(arg), distinct);
        }
        return Error("unexpected keyword " + t.text);
      }
      case TokenType::kIdentifier: {
        std::string first = Advance().text;
        // Function call?
        if (Peek().type == TokenType::kLParen) {
          Advance();
          std::vector<ExprPtr> args;
          if (Peek().type != TokenType::kRParen) {
            for (;;) {
              LLMDM_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
              args.push_back(std::move(a));
              if (!ConsumeIf(TokenType::kComma)) break;
            }
          }
          LLMDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return MakeFunction(common::ToUpper(first), std::move(args));
        }
        // Qualified column?
        if (ConsumeIf(TokenType::kDot)) {
          if (Peek().IsOperator("*")) {
            Advance();
            auto e = MakeStar();
            e->qualifier = first;
            return e;
          }
          LLMDM_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
          return MakeColumnRef(std::move(first), std::move(col));
        }
        return MakeColumnRef("", std::move(first));
      }
      default:
        return Error("unexpected token in expression");
    }
  }

  common::Result<ExprPtr> ParseCase() {
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("CASE"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    bool saw_when = false;
    while (ConsumeKeyword("WHEN")) {
      saw_when = true;
      LLMDM_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      LLMDM_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      LLMDM_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      e->args.push_back(std::move(cond));
      e->args.push_back(std::move(then));
    }
    if (!saw_when) return Error("CASE requires at least one WHEN");
    if (ConsumeKeyword("ELSE")) {
      LLMDM_ASSIGN_OR_RETURN(ExprPtr otherwise, ParseExpr());
      e->args.push_back(std::move(otherwise));
      e->has_else = true;
    }
    LLMDM_RETURN_IF_ERROR(ExpectKeyword("END"));
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

common::Result<Statement> ParseStatement(std::string_view sql) {
  LLMDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Parser(std::move(tokens)).ParseSingleStatement();
}

common::Result<std::vector<Statement>> ParseScript(std::string_view sql) {
  LLMDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Parser(std::move(tokens)).ParseAll();
}

common::Result<std::unique_ptr<SelectStmt>> ParseSelect(std::string_view sql) {
  LLMDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Parser(std::move(tokens)).ParseSelectOnly();
}

}  // namespace llmdm::sql
