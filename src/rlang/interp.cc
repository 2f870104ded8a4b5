// MiniR tree-walking evaluator: vectorized operators with recycling,
// 1-based indexing with copy-on-assign (R value semantics), lexical
// closures, and control flow.
#include "rlang/interp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace ilps::r {

namespace {
constexpr int kMaxDepth = 300;

struct BreakSig {};
struct NextSig {};
}  // namespace

// Thrown by the return() builtin; caught at closure-call boundaries.
struct ReturnSig {
  RRef value;
};

class REvaluator {
 public:
  // `owner` is the AST root holding the code being run: a function
  // literal aliases it, and a closure's body runs with it as owner again.
  REvaluator(Interpreter& in, std::shared_ptr<const void> owner)
      : in_(in), owner_(std::move(owner)) {}

  RRef eval(const RExpr& e, const EnvRef& env) {
    ++in_.count_;
    switch (e.kind) {
      case RExpr::Kind::kNum:
        return r_scalar(e.num);
      case RExpr::Kind::kStr:
        return r_scalar_str(e.str);
      case RExpr::Kind::kLogical:
        return r_scalar_logical(e.num != 0);
      case RExpr::Kind::kNull:
        return r_null();
      case RExpr::Kind::kName: {
        RRef* v = env->find(e.str);
        if (v == nullptr) throw RError("object '" + e.str + "' not found");
        return *v;
      }
      case RExpr::Kind::kBlock: {
        RRef last = r_null();
        for (const auto& item : e.items) last = eval(*item, env);
        return last;
      }
      case RExpr::Kind::kAssign: {
        RRef value = eval(*e.b, env);
        assign_target(*e.a, value, env, e.str == "<<-");
        return value;
      }
      case RExpr::Kind::kIf:
        if (condition(eval(*e.a, env))) return eval(*e.b, env);
        if (e.c) return eval(*e.c, env);
        return r_null();
      case RExpr::Kind::kFor: {
        RRef seq = eval(*e.a, env);
        size_t n = seq->length();
        for (size_t i = 0; i < n; ++i) {
          env->vars[e.str] = element(seq, i);
          try {
            eval(*e.b, env);
          } catch (BreakSig&) {
            break;
          } catch (NextSig&) {
            continue;
          }
        }
        return r_null();
      }
      case RExpr::Kind::kWhile:
        while (condition(eval(*e.a, env))) {
          try {
            eval(*e.b, env);
          } catch (BreakSig&) {
            break;
          } catch (NextSig&) {
            continue;
          }
        }
        return r_null();
      case RExpr::Kind::kRepeat:
        while (true) {
          try {
            eval(*e.a, env);
          } catch (BreakSig&) {
            break;
          } catch (NextSig&) {
            continue;
          }
        }
        return r_null();
      case RExpr::Kind::kBreak:
        throw BreakSig{};
      case RExpr::Kind::kNext:
        throw NextSig{};
      case RExpr::Kind::kFunction: {
        auto closure = std::make_shared<Closure>();
        for (const auto& [name, def] : e.params) {
          closure->params.emplace_back(name, def);
        }
        // Alias the owning root so the body outlives this eval call.
        closure->body = std::shared_ptr<const RExpr>(owner_, e.a.get());
        closure->env = env;
        auto v = std::make_shared<RValue>();
        v->type = RValue::Type::kClosure;
        v->closure = std::move(closure);
        return v;
      }
      case RExpr::Kind::kUnary: {
        RRef v = eval(*e.a, env);
        if (e.str == "!") {
          auto l = as_logical(v);
          std::vector<bool> out;
          out.reserve(l.size());
          for (bool b : l) out.push_back(!b);
          return r_logical(std::move(out));
        }
        auto n = as_numeric(v);
        if (e.str == "-") {
          for (auto& d : n) d = -d;
        }
        return r_numeric(std::move(n));
      }
      case RExpr::Kind::kBinary:
        return binary(e, env);
      case RExpr::Kind::kCall:
        return call(e, env);
      case RExpr::Kind::kIndex:
        return index_get(eval(*e.a, env), eval(*e.b, env));
      case RExpr::Kind::kIndex2:
        return index2_get(eval(*e.a, env), eval(*e.b, env));
      case RExpr::Kind::kDollar: {
        RRef obj = eval(*e.a, env);
        if (obj->type != RValue::Type::kList) {
          throw RError("$ operator is invalid for type '" +
                       std::string(type_name(obj->type)) + "'");
        }
        for (size_t i = 0; i < obj->names.size() && i < obj->list.size(); ++i) {
          if (obj->names[i] == e.str) return obj->list[i];
        }
        return r_null();
      }
    }
    throw RError("internal error: unknown expression kind");
  }

  RRef call_closure(const RRef& fn, std::vector<NamedArg>& args) {
    const Closure& closure = *fn->closure;
    // The guard owns the level from the increment on, so a call that
    // fails during argument matching gives its level back too.
    struct Guard {
      Interpreter& in;
      ~Guard() { --in.depth_; }
    } guard{in_};
    if (++in_.depth_ > kMaxDepth) {
      throw RError("evaluation nested too deeply: infinite recursion?");
    }
    auto env = std::make_shared<Environment>();
    env->parent = closure.env;
    in_.register_env(env);
    REvaluator body(in_, closure.body);  // defaults and body: the closure's AST

    // R argument matching (simplified): exact-name matches first, then
    // positional filling of the remaining parameters.
    std::vector<bool> param_bound(closure.params.size(), false);
    std::vector<bool> arg_used(args.size(), false);
    for (size_t a = 0; a < args.size(); ++a) {
      if (!args[a].name) continue;
      bool matched = false;
      for (size_t p = 0; p < closure.params.size(); ++p) {
        if (closure.params[p].first == *args[a].name) {
          if (param_bound[p]) throw RError("formal argument '" + *args[a].name +
                                           "' matched by multiple actual arguments");
          env->vars[closure.params[p].first] = args[a].value;
          param_bound[p] = true;
          arg_used[a] = true;
          matched = true;
          break;
        }
      }
      if (!matched) throw RError("unused argument (" + *args[a].name + " = ...)");
    }
    size_t p = 0;
    for (size_t a = 0; a < args.size(); ++a) {
      if (arg_used[a]) continue;
      while (p < closure.params.size() && param_bound[p]) ++p;
      if (p >= closure.params.size()) throw RError("unused arguments in call");
      env->vars[closure.params[p].first] = args[a].value;
      param_bound[p] = true;
    }
    for (size_t q = 0; q < closure.params.size(); ++q) {
      if (param_bound[q]) continue;
      if (closure.params[q].second) {
        env->vars[closure.params[q].first] = body.eval(*closure.params[q].second, env);
      } else {
        // Lazily missing, like R; error only if actually used — we
        // simplify to an immediate error.
        throw RError("argument \"" + closure.params[q].first + "\" is missing, with no default");
      }
    }

    try {
      return body.eval(*closure.body, env);
    } catch (ReturnSig& r) {
      return r.value;
    }
  }

 private:
  // ---- assignment ----

  static RRef clone(const RRef& v) { return std::make_shared<RValue>(*v); }

  void assign_target(const RExpr& target, RRef value, const EnvRef& env, bool super) {
    if (target.kind == RExpr::Kind::kName) {
      if (super) {
        // <<-: rebind where found in an enclosing scope, else global.
        for (Environment* e = env->parent.get(); e != nullptr; e = e->parent.get()) {
          auto it = e->vars.find(target.str);
          if (it != e->vars.end()) {
            it->second = std::move(value);
            return;
          }
        }
        in_.global_->vars[target.str] = std::move(value);
        return;
      }
      env->vars[target.str] = std::move(value);
      return;
    }
    // x[i] <- v, x[[i]] <- v, x$n <- v: R value semantics — build a
    // modified copy, then assign it back to the base target.
    if (target.kind == RExpr::Kind::kIndex || target.kind == RExpr::Kind::kIndex2 ||
        target.kind == RExpr::Kind::kDollar) {
      RRef base = clone(eval(*target.a, env));
      if (target.kind == RExpr::Kind::kDollar) {
        dollar_set(base, target.str, value);
      } else {
        RRef key = eval(*target.b, env);
        if (target.kind == RExpr::Kind::kIndex2 || base->type == RValue::Type::kList) {
          element_set(base, key, value);
        } else {
          index_set(base, key, value);
        }
      }
      assign_target(*target.a, base, env, super);
      return;
    }
    throw RError("invalid assignment target");
  }

  static void dollar_set(const RRef& obj, const std::string& name, const RRef& value) {
    if (obj->type == RValue::Type::kNull) {
      obj->type = RValue::Type::kList;
    }
    if (obj->type != RValue::Type::kList) throw RError("$<- is only valid for lists");
    obj->names.resize(obj->list.size());
    for (size_t i = 0; i < obj->names.size(); ++i) {
      if (obj->names[i] == name) {
        obj->list[i] = value;
        return;
      }
    }
    obj->list.push_back(value);
    obj->names.push_back(name);
  }

  void element_set(const RRef& obj, const RRef& key, const RRef& value) {
    if (obj->type == RValue::Type::kNull) obj->type = RValue::Type::kList;
    if (obj->type == RValue::Type::kList) {
      if (key->type == RValue::Type::kCharacter) {
        dollar_set(obj, scalar_chr(key, "[["), value);
        return;
      }
      int64_t i = static_cast<int64_t>(scalar_num(key, "[["));
      if (i < 1) throw RError("invalid subscript");
      if (static_cast<size_t>(i) > obj->list.size()) {
        obj->list.resize(static_cast<size_t>(i), r_null());
        if (!obj->names.empty()) obj->names.resize(static_cast<size_t>(i));
      }
      obj->list[static_cast<size_t>(i - 1)] = value;
      return;
    }
    index_set(obj, key, value);
  }

  void index_set(const RRef& obj, const RRef& key, const RRef& value) {
    auto idx = resolve_indices(obj, key);
    switch (obj->type) {
      case RValue::Type::kNumeric: {
        auto vals = as_numeric(value);
        if (vals.empty()) throw RError("replacement has length zero");
        size_t max_needed = *std::max_element(idx.begin(), idx.end()) + 1;
        if (max_needed > obj->num.size()) obj->num.resize(max_needed, 0.0);
        for (size_t k = 0; k < idx.size(); ++k) obj->num[idx[k]] = vals[k % vals.size()];
        return;
      }
      case RValue::Type::kCharacter: {
        auto vals = as_character(value);
        if (vals.empty()) throw RError("replacement has length zero");
        size_t max_needed = *std::max_element(idx.begin(), idx.end()) + 1;
        if (max_needed > obj->chr.size()) obj->chr.resize(max_needed);
        for (size_t k = 0; k < idx.size(); ++k) obj->chr[idx[k]] = vals[k % vals.size()];
        return;
      }
      case RValue::Type::kLogical: {
        auto vals = as_logical(value);
        if (vals.empty()) throw RError("replacement has length zero");
        size_t max_needed = *std::max_element(idx.begin(), idx.end()) + 1;
        if (max_needed > obj->lgl.size()) obj->lgl.resize(max_needed, false);
        for (size_t k = 0; k < idx.size(); ++k) obj->lgl[idx[k]] = vals[k % vals.size()];
        return;
      }
      default:
        throw RError("object of type '" + std::string(type_name(obj->type)) +
                     "' is not subsettable");
    }
  }

  // ---- indexing ----

  // Resolves an index value against an object into 0-based positions.
  std::vector<size_t> resolve_indices(const RRef& obj, const RRef& key) {
    size_t n = obj->length();
    std::vector<size_t> out;
    if (key->type == RValue::Type::kLogical) {
      if (key->lgl.empty()) throw RError("logical subscript of length zero");
      for (size_t i = 0; i < n; ++i) {
        if (key->lgl[i % key->lgl.size()]) out.push_back(i);
      }
      return out;
    }
    auto nums = as_numeric(key);
    bool any_neg = false;
    bool any_pos = false;
    for (double d : nums) {
      if (d < 0) any_neg = true;
      if (d > 0) any_pos = true;
    }
    if (any_neg && any_pos) throw RError("can't mix positive and negative subscripts");
    if (any_neg) {
      std::vector<bool> drop(n, false);
      for (double d : nums) {
        size_t i = static_cast<size_t>(-d);
        if (i >= 1 && i <= n) drop[i - 1] = true;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!drop[i]) out.push_back(i);
      }
      return out;
    }
    for (double d : nums) {
      int64_t i = static_cast<int64_t>(d);
      if (i < 1) continue;  // 0 indices are dropped, as in R
      out.push_back(static_cast<size_t>(i - 1));
    }
    return out;
  }

  RRef index_get(const RRef& obj, const RRef& key) {
    auto idx = resolve_indices(obj, key);
    auto check = [&](size_t i) {
      if (i >= obj->length()) {
        throw RError("subscript out of bounds: " + std::to_string(i + 1));
      }
      return i;
    };
    switch (obj->type) {
      case RValue::Type::kNumeric: {
        std::vector<double> out;
        for (size_t i : idx) out.push_back(obj->num[check(i)]);
        return r_numeric(std::move(out));
      }
      case RValue::Type::kCharacter: {
        std::vector<std::string> out;
        for (size_t i : idx) out.push_back(obj->chr[check(i)]);
        return r_character(std::move(out));
      }
      case RValue::Type::kLogical: {
        std::vector<bool> out;
        for (size_t i : idx) out.push_back(obj->lgl[check(i)]);
        return r_logical(std::move(out));
      }
      case RValue::Type::kList: {
        std::vector<RRef> out;
        std::vector<std::string> names;
        for (size_t i : idx) {
          out.push_back(obj->list[check(i)]);
          if (i < obj->names.size()) names.push_back(obj->names[i]);
        }
        return r_list(std::move(out), std::move(names));
      }
      default:
        throw RError("object of type '" + std::string(type_name(obj->type)) +
                     "' is not subsettable");
    }
  }

  RRef index2_get(const RRef& obj, const RRef& key) {
    if (obj->type == RValue::Type::kList && key->type == RValue::Type::kCharacter) {
      std::string name = scalar_chr(key, "[[");
      for (size_t i = 0; i < obj->names.size() && i < obj->list.size(); ++i) {
        if (obj->names[i] == name) return obj->list[i];
      }
      throw RError("subscript out of bounds: no element named '" + name + "'");
    }
    int64_t i = static_cast<int64_t>(scalar_num(key, "[["));
    if (i < 1 || static_cast<size_t>(i) > obj->length()) {
      throw RError("subscript out of bounds: " + std::to_string(i));
    }
    return element(obj, static_cast<size_t>(i - 1));
  }

  // The i-th element as a length-one value.
  static RRef element(const RRef& obj, size_t i) {
    switch (obj->type) {
      case RValue::Type::kNumeric: return r_scalar(obj->num[i]);
      case RValue::Type::kCharacter: return r_scalar_str(obj->chr[i]);
      case RValue::Type::kLogical: return r_scalar_logical(obj->lgl[i]);
      case RValue::Type::kList: return obj->list[i];
      default:
        throw RError("cannot take elements of type '" + std::string(type_name(obj->type)) + "'");
    }
  }

  // ---- operators ----

  RRef binary(const RExpr& e, const EnvRef& env) {
    const std::string& op = e.str;

    // Scalar short-circuit forms.
    if (op == "&&") {
      if (!condition(eval(*e.a, env))) return r_scalar_logical(false);
      return r_scalar_logical(condition(eval(*e.b, env)));
    }
    if (op == "||") {
      if (condition(eval(*e.a, env))) return r_scalar_logical(true);
      return r_scalar_logical(condition(eval(*e.b, env)));
    }

    RRef a = eval(*e.a, env);
    RRef b = eval(*e.b, env);

    if (op == ":") {
      double from = scalar_num(a, ":");
      double to = scalar_num(b, ":");
      std::vector<double> out;
      if (from <= to) {
        for (double v = from; v <= to + 1e-9; v += 1.0) out.push_back(v);
      } else {
        for (double v = from; v >= to - 1e-9; v -= 1.0) out.push_back(v);
      }
      return r_numeric(std::move(out));
    }

    if (op == "%in%") {
      auto needles = as_character(a);
      auto haystack = as_character(b);
      std::vector<bool> out;
      for (const auto& n : needles) {
        bool found = false;
        for (const auto& h : haystack) {
          if (n == h) {
            found = true;
            break;
          }
        }
        out.push_back(found);
      }
      return r_logical(std::move(out));
    }

    if (op == "&" || op == "|") {
      auto x = as_logical(a);
      auto y = as_logical(b);
      size_t n = std::max(x.size(), y.size());
      if (x.empty() || y.empty()) return r_logical({});
      std::vector<bool> out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        bool xv = x[i % x.size()];
        bool yv = y[i % y.size()];
        out.push_back(op == "&" ? (xv && yv) : (xv || yv));
      }
      return r_logical(std::move(out));
    }

    bool comparison = op == "==" || op == "!=" || op == "<" || op == ">" || op == "<=" ||
                      op == ">=";
    if (comparison && (a->type == RValue::Type::kCharacter ||
                       b->type == RValue::Type::kCharacter)) {
      auto x = as_character(a);
      auto y = as_character(b);
      size_t n = std::max(x.size(), y.size());
      if (x.empty() || y.empty()) return r_logical({});
      std::vector<bool> out;
      for (size_t i = 0; i < n; ++i) {
        const std::string& xv = x[i % x.size()];
        const std::string& yv = y[i % y.size()];
        int c = xv.compare(yv);
        out.push_back(cmp_result(op, c));
      }
      return r_logical(std::move(out));
    }

    auto x = as_numeric(a);
    auto y = as_numeric(b);
    if (x.empty() || y.empty()) {
      return comparison ? r_logical({}) : r_numeric({});
    }
    size_t n = std::max(x.size(), y.size());
    if (comparison) {
      std::vector<bool> out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        double xv = x[i % x.size()];
        double yv = y[i % y.size()];
        int c = xv < yv ? -1 : (xv > yv ? 1 : 0);
        out.push_back(cmp_result(op, c));
      }
      return r_logical(std::move(out));
    }
    std::vector<double> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      double xv = x[i % x.size()];
      double yv = y[i % y.size()];
      if (op == "+") {
        out.push_back(xv + yv);
      } else if (op == "-") {
        out.push_back(xv - yv);
      } else if (op == "*") {
        out.push_back(xv * yv);
      } else if (op == "/") {
        out.push_back(xv / yv);  // R yields Inf/NaN, not an error
      } else if (op == "^") {
        out.push_back(std::pow(xv, yv));
      } else if (op == "%%") {
        double r = std::fmod(xv, yv);
        if (r != 0.0 && ((r < 0) != (yv < 0))) r += yv;
        out.push_back(r);
      } else if (op == "%/%") {
        out.push_back(std::floor(xv / yv));
      } else {
        throw RError("internal error: operator " + op);
      }
    }
    return r_numeric(std::move(out));
  }

  static bool cmp_result(const std::string& op, int c) {
    if (op == "==") return c == 0;
    if (op == "!=") return c != 0;
    if (op == "<") return c < 0;
    if (op == "<=") return c <= 0;
    if (op == ">") return c > 0;
    return c >= 0;
  }

  // ---- calls ----

  RRef call(const RExpr& e, const EnvRef& env) {
    RRef fn = eval(*e.a, env);
    std::vector<NamedArg> args;
    for (size_t i = 0; i < e.items.size(); ++i) {
      NamedArg arg;
      if (i < e.arg_names.size() && !e.arg_names[i].empty()) arg.name = e.arg_names[i];
      arg.value = eval(*e.items[i], env);
      args.push_back(std::move(arg));
    }
    if (fn->type == RValue::Type::kBuiltin) return fn->builtin->fn(args);
    if (fn->type == RValue::Type::kClosure) return call_closure(fn, args);
    throw RError("attempt to apply non-function");
  }

  Interpreter& in_;
  std::shared_ptr<const void> owner_;
};

// ---- bridges for builtins.cc ----

RRef call_r_function(Interpreter& in, const RRef& fn, std::vector<NamedArg>& args) {
  if (fn->type == RValue::Type::kBuiltin) return fn->builtin->fn(args);
  if (fn->type != RValue::Type::kClosure) throw RError("attempt to apply non-function");
  REvaluator ev(in, nullptr);
  return ev.call_closure(fn, args);
}

void throw_r_return(RRef value) { throw ReturnSig{std::move(value)}; }

// ---- Interpreter facade ----

// install_base() lives in builtins.cc.

Interpreter::Interpreter() {
  out_ = [](const std::string& s) { std::fputs(s.c_str(), stdout); };
  global_ = std::make_shared<Environment>();
  install_base();
}

Interpreter::~Interpreter() { break_env_cycles(); }

void Interpreter::register_env(const EnvRef& env) {
  // Compact occasionally so long runs do not accumulate dead entries.
  if (envs_.size() > 64 && envs_.size() == envs_.capacity()) {
    std::erase_if(envs_, [](const std::weak_ptr<Environment>& w) { return w.expired(); });
  }
  envs_.push_back(env);
}

void Interpreter::break_env_cycles() {
  global_->vars.clear();
  for (auto& weak : envs_) {
    if (auto env = weak.lock()) {
      env->vars.clear();
      env->parent.reset();
    }
  }
  envs_.clear();
}

void Interpreter::reset() {
  break_env_cycles();
  global_ = std::make_shared<Environment>();
  count_ = 0;
  depth_ = 0;
  rng_ = Rng(0x5EED);
  install_base();
}

RRef Interpreter::eval_value(const std::string& code) {
  auto prog = std::make_shared<std::vector<RExprP>>(parse_r(code));
  if (prog->empty()) return r_null();
  REvaluator ev(*this, prog);
  RRef last = r_null();
  for (const auto& e : *prog) last = ev.eval(*e, global_);
  return last;
}

std::string Interpreter::eval(const std::string& code) { return deparse(eval_value(code)); }

std::string Interpreter::eval(const std::string& code, const std::string& expr) {
  eval_value(code);
  RRef v = eval_value(expr);
  auto parts = as_character(v);
  return str::join(parts, ",");
}

void Interpreter::set_output_handler(std::function<void(const std::string&)> fn) {
  out_ = std::move(fn);
}

void Interpreter::set_global(const std::string& name, RRef value) {
  global_->vars[name] = std::move(value);
}

RRef Interpreter::get_global(const std::string& name) {
  auto it = global_->vars.find(name);
  return it == global_->vars.end() ? nullptr : it->second;
}

}  // namespace ilps::r
