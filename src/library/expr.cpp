#include "library/expr.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <unordered_map>

namespace lily {

ExprPtr Expr::make_var(unsigned v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Var;
    e->var = v;
    return e;
}

ExprPtr Expr::make_const(bool value) {
    auto e = std::make_shared<Expr>();
    e->kind = value ? ExprKind::Const1 : ExprKind::Const0;
    return e;
}

ExprPtr Expr::make_not(ExprPtr a) {
    if (a->kind == ExprKind::Not) return a->kids[0];  // !!x == x
    if (a->kind == ExprKind::Const0) return make_const(true);
    if (a->kind == ExprKind::Const1) return make_const(false);
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Not;
    e->kids.push_back(std::move(a));
    return e;
}

namespace {

ExprPtr make_nary(ExprKind kind, std::vector<ExprPtr> kids) {
    // Flatten nested same-kind children.
    std::vector<ExprPtr> flat;
    for (auto& k : kids) {
        if (k->kind == kind) {
            flat.insert(flat.end(), k->kids.begin(), k->kids.end());
        } else {
            flat.push_back(std::move(k));
        }
    }
    if (flat.size() == 1) return flat[0];
    auto e = std::make_shared<Expr>();
    e->kind = kind;
    e->kids = std::move(flat);
    return e;
}

}  // namespace

ExprPtr Expr::make_and(std::vector<ExprPtr> kids) { return make_nary(ExprKind::And, std::move(kids)); }
ExprPtr Expr::make_or(std::vector<ExprPtr> kids) { return make_nary(ExprKind::Or, std::move(kids)); }

namespace {

/// Recursive-descent parser:
///   or   := and ('+' and)*
///   and  := unary ('*' unary)*
///   unary := '!' unary | primary '\''* | primary
///   primary := IDENT | CONST0 | CONST1 | '(' or ')'
class EquationParser {
public:
    EquationParser(std::string_view text, std::vector<std::string>& names)
        : text_(text), names_(names) {}

    ExprPtr parse() {
        ExprPtr e = parse_or();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return e;
    }

private:
    [[noreturn]] void fail(const std::string& msg) const {
        throw std::runtime_error("equation: " + msg + " at offset " + std::to_string(pos_) +
                                 " in '" + std::string(text_) + "'");
    }

    void skip_ws() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }

    bool peek(char c) {
        skip_ws();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool consume(char c) {
        if (peek(c)) {
            ++pos_;
            return true;
        }
        return false;
    }

    ExprPtr parse_or() {
        std::vector<ExprPtr> kids{parse_and()};
        while (consume('+')) kids.push_back(parse_and());
        return Expr::make_or(std::move(kids));
    }

    ExprPtr parse_and() {
        std::vector<ExprPtr> kids{parse_unary()};
        while (consume('*')) kids.push_back(parse_unary());
        return Expr::make_and(std::move(kids));
    }

    ExprPtr parse_unary() {
        if (consume('!')) return Expr::make_not(parse_unary());
        ExprPtr e = parse_primary();
        while (consume('\'')) e = Expr::make_not(e);
        return e;
    }

    ExprPtr parse_primary() {
        skip_ws();
        if (consume('(')) {
            ExprPtr e = parse_or();
            if (!consume(')')) fail("expected ')'");
            return e;
        }
        const std::size_t start = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '[' || c == ']' ||
                c == '.' || c == '<' || c == '>') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) fail("expected identifier");
        const std::string name(text_.substr(start, pos_ - start));
        if (name == "CONST0") return Expr::make_const(false);
        if (name == "CONST1") return Expr::make_const(true);
        const auto it = std::find(names_.begin(), names_.end(), name);
        unsigned idx;
        if (it == names_.end()) {
            idx = static_cast<unsigned>(names_.size());
            names_.push_back(name);
        } else {
            idx = static_cast<unsigned>(it - names_.begin());
        }
        return Expr::make_var(idx);
    }

    std::string_view text_;
    std::vector<std::string>& names_;
    std::size_t pos_ = 0;
};

}  // namespace

StatusOr<ParsedEquation> parse_equation_checked(std::string_view text) {
    const auto eq = text.find('=');
    if (eq == std::string_view::npos) {
        return Status(StatusCode::ParseError, "equation: missing '='");
    }
    ParsedEquation out;
    std::string_view lhs = text.substr(0, eq);
    while (!lhs.empty() && std::isspace(static_cast<unsigned char>(lhs.back()))) lhs.remove_suffix(1);
    while (!lhs.empty() && std::isspace(static_cast<unsigned char>(lhs.front()))) lhs.remove_prefix(1);
    if (lhs.empty()) return Status(StatusCode::ParseError, "equation: empty output name");
    out.output = std::string(lhs);
    EquationParser parser(text.substr(eq + 1), out.input_names);
    // The recursive-descent core reports via exception; fold it into the
    // Status channel here so callers see one error style.
    try {
        out.expr = parser.parse();
    } catch (const std::runtime_error& e) {
        return Status(StatusCode::ParseError, e.what());
    }
    return out;
}

bool eval_expr(const Expr& e, std::uint64_t assignment) {
    switch (e.kind) {
        case ExprKind::Var:
            return (assignment >> e.var) & 1;
        case ExprKind::Not:
            return !eval_expr(*e.kids[0], assignment);
        case ExprKind::And:
            for (const auto& k : e.kids) {
                if (!eval_expr(*k, assignment)) return false;
            }
            return true;
        case ExprKind::Or:
            for (const auto& k : e.kids) {
                if (eval_expr(*k, assignment)) return true;
            }
            return false;
        case ExprKind::Const0:
            return false;
        case ExprKind::Const1:
            return true;
    }
    return false;
}

TruthTable expr_truth_table(const Expr& e, unsigned n_vars) {
    TruthTable t(n_vars);
    for (std::size_t m = 0; m < t.n_minterms(); ++m) {
        if (eval_expr(e, m)) t.set(m, true);
    }
    return t;
}

unsigned expr_var_count(const Expr& e) {
    switch (e.kind) {
        case ExprKind::Var:
            return e.var + 1;
        case ExprKind::Const0:
        case ExprKind::Const1:
            return 0;
        default: {
            unsigned n = 0;
            for (const auto& k : e.kids) n = std::max(n, expr_var_count(*k));
            return n;
        }
    }
}

std::string expr_to_string(const Expr& e, std::span<const std::string> names) {
    switch (e.kind) {
        case ExprKind::Var: {
            if (e.var < names.size()) return names[e.var];
            std::string anon = "v";
            anon += std::to_string(e.var);
            return anon;
        }
        case ExprKind::Not:
            return "!(" + expr_to_string(*e.kids[0], names) + ")";
        case ExprKind::Const0:
            return "CONST0";
        case ExprKind::Const1:
            return "CONST1";
        case ExprKind::And:
        case ExprKind::Or: {
            std::string out = "(";
            for (std::size_t i = 0; i < e.kids.size(); ++i) {
                if (i > 0) out += e.kind == ExprKind::And ? "*" : "+";
                out += expr_to_string(*e.kids[i], names);
            }
            return out + ")";
        }
    }
    return "?";
}

}  // namespace lily
