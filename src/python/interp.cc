// MiniPy tree-walking evaluator.
#include "python/interp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace ilps::py {

namespace {

constexpr int kMaxDepth = 400;

struct BreakSig {};
struct ContinueSig {};
struct ReturnSig {
  Ref value;
};

int64_t floor_div_i(int64_t a, int64_t b) {
  if (b == 0) throw PyError("ZeroDivisionError: integer division or modulo by zero");
  int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t py_mod_i(int64_t a, int64_t b) {
  if (b == 0) throw PyError("ZeroDivisionError: integer division or modulo by zero");
  int64_t r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

// Python-style % formatting ("%d %s" % (a, b)).
std::string percent_format(const std::string& fmt, const Ref& arg) {
  std::vector<std::string> args;
  if (is_tuple(arg)) {
    for (const auto& item : std::get<Value::Tuple>(arg->v)) args.push_back(to_str(item));
  } else {
    args.push_back(to_str(arg));
  }
  return str::printf_format(fmt, args);
}

// Converts a Python format spec (".3f", "05d", "8.2e", "d", "x", "s") into
// a printf conversion applied to the value.
std::string apply_format_spec(const Ref& v, const std::string& spec) {
  if (spec.empty()) return to_str(v);
  char type = spec.back();
  std::string body = spec;
  if (std::isalpha(static_cast<unsigned char>(type))) {
    body = spec.substr(0, spec.size() - 1);
  } else {
    type = is_float(v) ? 'g' : (is_int(v) || is_bool(v) ? 'd' : 's');
  }
  std::string pf = "%" + body + std::string(1, type);
  std::vector<std::string> args;
  if (type == 's') {
    args.push_back(to_str(v));
  } else if (type == 'd' || type == 'x' || type == 'X' || type == 'o' || type == 'c') {
    args.push_back(std::to_string(as_int(v)));
  } else {
    args.push_back(str::format_double(as_double(v)));
  }
  return str::printf_format(pf, args);
}

}  // namespace

// Evaluates against `owner`, the AST root that holds the code being run:
// a def or lambda aliases it, so a function keeps exactly the tree that
// defines it alive, and its body later runs with that owner again.
class Evaluator {
 public:
  Evaluator(Interpreter& in, std::shared_ptr<const void> owner)
      : in_(in), owner_(std::move(owner)) {}

  void exec_block(const Block& block) {
    for (const auto& stmt : block) exec(*stmt);
  }

  // ---- statements ----

  void exec(const Stmt& s) {
    ++in_.statements_;
    switch (s.kind) {
      case Stmt::Kind::kExpr:
        eval(*s.value);
        return;
      case Stmt::Kind::kAssign:
        assign(*s.target, eval(*s.value));
        return;
      case Stmt::Kind::kAugAssign: {
        Ref current = eval(*s.target);
        Ref result = binary(s.op, current, eval(*s.value));
        assign(*s.target, result);
        return;
      }
      case Stmt::Kind::kIf:
        if (truthy(eval(*s.value))) {
          exec_block(s.body);
        } else {
          exec_block(s.orelse);
        }
        return;
      case Stmt::Kind::kWhile:
        while (truthy(eval(*s.value))) {
          try {
            exec_block(s.body);
          } catch (BreakSig&) {
            break;
          } catch (ContinueSig&) {
            continue;
          }
        }
        return;
      case Stmt::Kind::kFor: {
        std::vector<Ref> items = iterate(eval(*s.value));
        for (const Ref& item : items) {
          bind_targets(s.names, item);
          try {
            exec_block(s.body);
          } catch (BreakSig&) {
            break;
          } catch (ContinueSig&) {
            continue;
          }
        }
        return;
      }
      case Stmt::Kind::kDef: {
        Function fn;
        fn.name = s.name;
        fn.params = s.params;
        for (const auto& d : s.defaults) fn.defaults.push_back(eval(*d));
        // Share the body through an aliasing shared_ptr to the owning
        // root, so it outlives this eval.
        fn.body = std::shared_ptr<const void>(owner_, &s.body);
        set_name(s.name, std::make_shared<Value>(std::move(fn)));
        return;
      }
      case Stmt::Kind::kReturn:
        throw ReturnSig{s.value ? eval(*s.value) : none()};
      case Stmt::Kind::kBreak:
        throw BreakSig{};
      case Stmt::Kind::kContinue:
        throw ContinueSig{};
      case Stmt::Kind::kPass:
        return;
      case Stmt::Kind::kImport:
        for (const auto& name : s.names) {
          if (name == "math") {
            set_name("math", make_math_module());
          } else if (name == "random") {
            set_name("random", make_random_module(in_.rng_));
          } else {
            throw PyError("ModuleNotFoundError: No module named '" + name + "'");
          }
        }
        return;
      case Stmt::Kind::kGlobal:
        if (!in_.frames_.empty()) {
          auto& frame = in_.frames_.back();
          for (const auto& name : s.names) frame.global_names.push_back(name);
        }
        return;
      case Stmt::Kind::kDel:
        del_target(*s.target);
        return;
      case Stmt::Kind::kAssert: {
        if (!truthy(eval(*s.value))) {
          std::string msg = "AssertionError";
          if (s.target) msg += ": " + to_str(eval(*s.target));
          throw PyError(msg);
        }
        return;
      }
      case Stmt::Kind::kRaise: {
        if (s.name.empty()) throw PyError("RuntimeError: re-raise outside handler");
        std::string msg = s.name;
        if (s.value) msg += ": " + to_str(eval(*s.value));
        throw PyError(msg);
      }
      case Stmt::Kind::kTry: {
        auto run_finally = [&] {
          if (!s.orelse.empty()) exec_block(s.orelse);
        };
        try {
          exec_block(s.body);
        } catch (PyError& e) {
          std::string what = e.what();
          for (const auto& handler : s.handlers) {
            bool match = handler.type.empty() || handler.type == "Exception" ||
                         what.rfind(handler.type, 0) == 0;
            if (!match) continue;
            if (!handler.var.empty()) set_name(handler.var, string(what));
            try {
              exec_block(handler.body);
            } catch (...) {
              run_finally();
              throw;
            }
            run_finally();
            return;
          }
          run_finally();
          throw;
        } catch (...) {
          // break/continue/return pass through, but finally still runs.
          run_finally();
          throw;
        }
        run_finally();
        return;
      }
    }
    throw PyError("internal error: unknown statement kind");
  }

  // ---- expressions ----

  Ref eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return e.literal;
      case Expr::Kind::kName:
        return lookup(e.name);
      case Expr::Kind::kUnary: {
        Ref v = eval(*e.a);
        if (e.op == "not") return boolean(!truthy(v));
        if (e.op == "-") {
          if (is_int(v) || is_bool(v)) return integer(-as_int(v));
          if (is_float(v)) return floating(-as_double(v));
          throw PyError("TypeError: bad operand type for unary -: '" + type_name(v) + "'");
        }
        if (e.op == "+") {
          as_double(v);
          return v;
        }
        if (e.op == "~") return integer(~as_int(v));
        throw PyError("internal error: unary op " + e.op);
      }
      case Expr::Kind::kBinary:
        return binary(e.op, eval(*e.a), eval(*e.b));
      case Expr::Kind::kBoolOp: {
        Ref v = eval(*e.items[0]);
        for (size_t i = 1; i < e.items.size(); ++i) {
          bool t = truthy(v);
          if (e.op == "and" && !t) return v;
          if (e.op == "or" && t) return v;
          v = eval(*e.items[i]);
        }
        return v;
      }
      case Expr::Kind::kCompare: {
        Ref lhs = eval(*e.a);
        for (size_t i = 0; i < e.ops.size(); ++i) {
          Ref rhs = eval(*e.items[i]);
          if (!compare_once(e.ops[i], lhs, rhs)) return boolean(false);
          lhs = rhs;
        }
        return boolean(true);
      }
      case Expr::Kind::kTernary:
        return truthy(eval(*e.b)) ? eval(*e.a) : eval(*e.c);
      case Expr::Kind::kCall:
        return call(e);
      case Expr::Kind::kAttribute: {
        Ref obj = eval(*e.a);
        if (std::holds_alternative<Module>(obj->v)) {
          const auto& mod = std::get<Module>(obj->v);
          auto it = mod.members.find(e.name);
          if (it == mod.members.end()) {
            throw PyError("AttributeError: module '" + mod.name + "' has no attribute '" +
                          e.name + "'");
          }
          return it->second;
        }
        throw PyError("AttributeError: '" + type_name(obj) + "' object attribute '" + e.name +
                      "' is not directly readable (method calls are supported)");
      }
      case Expr::Kind::kIndex:
        return index_get(eval(*e.a), eval(*e.b));
      case Expr::Kind::kSlice:
        return slice_get(eval(*e.a), e.b ? eval(*e.b) : nullptr, e.c ? eval(*e.c) : nullptr);
      case Expr::Kind::kListLit: {
        Value::List items;
        for (const auto& item : e.items) items.push_back(eval(*item));
        return list(std::move(items));
      }
      case Expr::Kind::kTupleLit: {
        Value::Tuple items;
        for (const auto& item : e.items) items.push_back(eval(*item));
        return tuple(std::move(items));
      }
      case Expr::Kind::kDictLit: {
        Value::Dict d;
        for (size_t i = 0; i + 1 < e.items.size(); i += 2) {
          dict_set(d, eval(*e.items[i]), eval(*e.items[i + 1]));
        }
        return dict(std::move(d));
      }
      case Expr::Kind::kLambda: {
        Function fn;
        fn.name = "<lambda>";
        fn.params = e.params;
        for (const auto& d : e.defaults) fn.defaults.push_back(eval(*d));
        fn.is_lambda = true;
        fn.body = std::shared_ptr<const void>(owner_, e.a.get());
        return std::make_shared<Value>(std::move(fn));
      }
      case Expr::Kind::kListComp: {
        Value::List out;
        for (const Ref& item : iterate(eval(*e.b))) {
          bind_targets(e.names, item);
          if (e.c && !truthy(eval(*e.c))) continue;
          out.push_back(eval(*e.a));
        }
        return list(std::move(out));
      }
      case Expr::Kind::kFString: {
        std::string out = e.strs[0];
        for (size_t i = 0; i < e.items.size(); ++i) {
          out += apply_format_spec(eval(*e.items[i]), e.specs[i]);
          out += e.strs[i + 1];
        }
        return string(std::move(out));
      }
    }
    throw PyError("internal error: unknown expression kind");
  }

  // ---- helpers used by the Interpreter facade ----

  Ref call_function(const Ref& callee, std::vector<Ref>& args) {
    if (std::holds_alternative<Builtin>(callee->v)) {
      return std::get<Builtin>(callee->v).fn(args);
    }
    if (!std::holds_alternative<Function>(callee->v)) {
      throw PyError("TypeError: '" + type_name(callee) + "' object is not callable");
    }
    const Function& fn = std::get<Function>(callee->v);
    size_t required = fn.params.size() - fn.defaults.size();
    if (args.size() < required || args.size() > fn.params.size()) {
      throw PyError("TypeError: " + fn.name + "() takes " + std::to_string(fn.params.size()) +
                    " arguments but " + std::to_string(args.size()) + " were given");
    }
    if (++in_.depth_ > kMaxDepth) {
      --in_.depth_;
      throw PyError("RecursionError: maximum recursion depth exceeded");
    }
    Interpreter::Frame frame;
    for (size_t i = 0; i < fn.params.size(); ++i) {
      Ref v = i < args.size() ? args[i] : fn.defaults[i - required];
      frame.locals[fn.params[i]] = v;
    }
    in_.frames_.push_back(std::move(frame));
    struct Guard {
      Interpreter& in;
      ~Guard() {
        in.frames_.pop_back();
        --in.depth_;
      }
    } guard{in_};
    Evaluator body(in_, fn.body);
    if (fn.is_lambda) {
      return body.eval(*static_cast<const Expr*>(fn.body.get()));
    }
    try {
      body.exec_block(*static_cast<const Block*>(fn.body.get()));
    } catch (ReturnSig& r) {
      return r.value;
    }
    return none();
  }

 private:
  // ---- names ----

  Ref lookup(const std::string& name) {
    if (!in_.frames_.empty()) {
      auto& frame = in_.frames_.back();
      auto it = frame.locals.find(name);
      if (it != frame.locals.end()) return it->second;
    }
    auto git = in_.globals_.find(name);
    if (git != in_.globals_.end()) return git->second;
    auto bit = in_.builtins_.find(name);
    if (bit != in_.builtins_.end()) return bit->second;
    throw PyError("NameError: name '" + name + "' is not defined");
  }

  void set_name(const std::string& name, Ref value) {
    if (!in_.frames_.empty()) {
      auto& frame = in_.frames_.back();
      bool declared_global = std::find(frame.global_names.begin(), frame.global_names.end(),
                                       name) != frame.global_names.end();
      if (!declared_global) {
        frame.locals[name] = std::move(value);
        return;
      }
    }
    in_.globals_[name] = std::move(value);
  }

  void del_name(const std::string& name) {
    if (!in_.frames_.empty() && in_.frames_.back().locals.erase(name) > 0) return;
    if (in_.globals_.erase(name) > 0) return;
    throw PyError("NameError: name '" + name + "' is not defined");
  }

  // ---- assignment ----

  void assign(const Expr& target, const Ref& value) {
    switch (target.kind) {
      case Expr::Kind::kName:
        set_name(target.name, value);
        return;
      case Expr::Kind::kIndex: {
        Ref obj = eval(*target.a);
        Ref key = eval(*target.b);
        if (is_list(obj)) {
          auto& items = std::get<Value::List>(obj->v);
          items[list_index(as_int(key), items.size())] = value;
          return;
        }
        if (is_dict(obj)) {
          dict_set(std::get<Value::Dict>(obj->v), key, value);
          return;
        }
        throw PyError("TypeError: '" + type_name(obj) + "' object does not support item assignment");
      }
      case Expr::Kind::kTupleLit:
      case Expr::Kind::kListLit: {
        std::vector<Ref> parts = iterate(value);
        if (parts.size() != target.items.size()) {
          throw PyError("ValueError: cannot unpack " + std::to_string(parts.size()) +
                        " values into " + std::to_string(target.items.size()) + " targets");
        }
        for (size_t i = 0; i < parts.size(); ++i) assign(*target.items[i], parts[i]);
        return;
      }
      default:
        throw PyError("SyntaxError: cannot assign to this expression");
    }
  }

  void bind_targets(const std::vector<std::string>& names, const Ref& item) {
    if (names.size() == 1) {
      set_name(names[0], item);
      return;
    }
    std::vector<Ref> parts = iterate(item);
    if (parts.size() != names.size()) {
      throw PyError("ValueError: cannot unpack " + std::to_string(parts.size()) + " values into " +
                    std::to_string(names.size()) + " targets");
    }
    for (size_t i = 0; i < names.size(); ++i) set_name(names[i], parts[i]);
  }

  void del_target(const Expr& target) {
    if (target.kind == Expr::Kind::kName) {
      del_name(target.name);
      return;
    }
    if (target.kind == Expr::Kind::kIndex) {
      Ref obj = eval(*target.a);
      Ref key = eval(*target.b);
      if (is_list(obj)) {
        auto& items = std::get<Value::List>(obj->v);
        items.erase(items.begin() +
                    static_cast<ptrdiff_t>(list_index(as_int(key), items.size())));
        return;
      }
      if (is_dict(obj)) {
        if (!dict_del(std::get<Value::Dict>(obj->v), key)) {
          throw PyError("KeyError: " + to_repr(key));
        }
        return;
      }
    }
    throw PyError("SyntaxError: cannot delete this expression");
  }

  // ---- operators ----

  Ref binary(const std::string& op, const Ref& a, const Ref& b) {
    auto both_intish = [&] {
      return (is_int(a) || is_bool(a)) && (is_int(b) || is_bool(b));
    };
    auto numeric = [](const Ref& v) { return is_bool(v) || is_int(v) || is_float(v); };

    if (op == "+") {
      if (both_intish()) return integer(as_int(a) + as_int(b));
      if (numeric(a) && numeric(b)) return floating(as_double(a) + as_double(b));
      if (is_str(a) && is_str(b)) return string(as_str(a) + as_str(b));
      if (is_list(a) && is_list(b)) {
        Value::List out = std::get<Value::List>(a->v);
        const auto& rhs = std::get<Value::List>(b->v);
        out.insert(out.end(), rhs.begin(), rhs.end());
        return list(std::move(out));
      }
      if (is_tuple(a) && is_tuple(b)) {
        Value::Tuple out = std::get<Value::Tuple>(a->v);
        const auto& rhs = std::get<Value::Tuple>(b->v);
        out.insert(out.end(), rhs.begin(), rhs.end());
        return tuple(std::move(out));
      }
    } else if (op == "-") {
      if (both_intish()) return integer(as_int(a) - as_int(b));
      if (numeric(a) && numeric(b)) return floating(as_double(a) - as_double(b));
    } else if (op == "*") {
      if (both_intish()) return integer(as_int(a) * as_int(b));
      if (numeric(a) && numeric(b)) return floating(as_double(a) * as_double(b));
      auto repeat_seq = [](const std::vector<Ref>& items, int64_t n) {
        std::vector<Ref> out;
        for (int64_t i = 0; i < n; ++i) out.insert(out.end(), items.begin(), items.end());
        return out;
      };
      if (is_str(a) && (is_int(b) || is_bool(b))) {
        std::string out;
        for (int64_t i = 0; i < as_int(b); ++i) out += as_str(a);
        return string(std::move(out));
      }
      if (is_list(a) && (is_int(b) || is_bool(b))) {
        return list(repeat_seq(std::get<Value::List>(a->v), as_int(b)));
      }
    } else if (op == "/") {
      if (numeric(a) && numeric(b)) {
        double y = as_double(b);
        if (y == 0.0) throw PyError("ZeroDivisionError: division by zero");
        return floating(as_double(a) / y);
      }
    } else if (op == "//") {
      if (both_intish()) return integer(floor_div_i(as_int(a), as_int(b)));
      if (numeric(a) && numeric(b)) {
        double y = as_double(b);
        if (y == 0.0) throw PyError("ZeroDivisionError: float floor division by zero");
        return floating(std::floor(as_double(a) / y));
      }
    } else if (op == "%") {
      if (is_str(a)) return string(percent_format(as_str(a), b));
      if (both_intish()) return integer(py_mod_i(as_int(a), as_int(b)));
      if (numeric(a) && numeric(b)) {
        double y = as_double(b);
        if (y == 0.0) throw PyError("ZeroDivisionError: float modulo");
        double r = std::fmod(as_double(a), y);
        if (r != 0.0 && ((r < 0) != (y < 0))) r += y;
        return floating(r);
      }
    } else if (op == "**") {
      if (both_intish() && as_int(b) >= 0) {
        int64_t base = as_int(a);
        int64_t exp = as_int(b);
        int64_t out = 1;
        for (int64_t i = 0; i < exp; ++i) out *= base;
        return integer(out);
      }
      if (numeric(a) && numeric(b)) return floating(std::pow(as_double(a), as_double(b)));
    } else if (op == "&") {
      return integer(as_int(a) & as_int(b));
    } else if (op == "|") {
      return integer(as_int(a) | as_int(b));
    } else if (op == "^") {
      return integer(as_int(a) ^ as_int(b));
    } else if (op == "<<") {
      return integer(as_int(a) << as_int(b));
    } else if (op == ">>") {
      return integer(as_int(a) >> as_int(b));
    }
    throw PyError("TypeError: unsupported operand type(s) for " + op + ": '" + type_name(a) +
                  "' and '" + type_name(b) + "'");
  }

  bool compare_once(const std::string& op, const Ref& a, const Ref& b) {
    if (op == "==") return equal(a, b);
    if (op == "!=") return !equal(a, b);
    if (op == "is") return a.get() == b.get() || (is_none(a) && is_none(b));
    if (op == "is not") return !(a.get() == b.get() || (is_none(a) && is_none(b)));
    if (op == "in" || op == "not in") {
      bool found;
      if (is_str(b)) {
        found = as_str(b).find(as_str(a)) != std::string::npos;
      } else if (is_dict(b)) {
        found = dict_get(std::get<Value::Dict>(b->v), a).has_value();
      } else {
        found = false;
        for (const Ref& item : iterate(b)) {
          if (equal(item, a)) {
            found = true;
            break;
          }
        }
      }
      return op == "in" ? found : !found;
    }
    int c = compare(a, b);
    if (op == "<") return c < 0;
    if (op == "<=") return c <= 0;
    if (op == ">") return c > 0;
    if (op == ">=") return c >= 0;
    throw PyError("internal error: comparison op " + op);
  }

  // ---- sequences ----

  static size_t list_index(int64_t i, size_t n) {
    if (i < 0) i += static_cast<int64_t>(n);
    if (i < 0 || i >= static_cast<int64_t>(n)) {
      throw PyError("IndexError: index out of range");
    }
    return static_cast<size_t>(i);
  }

  std::vector<Ref> iterate(const Ref& v) {
    if (is_list(v)) return std::get<Value::List>(v->v);
    if (is_tuple(v)) return std::get<Value::Tuple>(v->v);
    if (is_str(v)) {
      std::vector<Ref> out;
      for (char c : as_str(v)) out.push_back(string(std::string(1, c)));
      return out;
    }
    if (is_dict(v)) {
      std::vector<Ref> out;
      for (const auto& [k, val] : std::get<Value::Dict>(v->v)) {
        (void)val;
        out.push_back(k);
      }
      return out;
    }
    throw PyError("TypeError: '" + type_name(v) + "' object is not iterable");
  }

  Ref index_get(const Ref& obj, const Ref& key) {
    if (is_list(obj)) {
      const auto& items = std::get<Value::List>(obj->v);
      return items[list_index(as_int(key), items.size())];
    }
    if (is_tuple(obj)) {
      const auto& items = std::get<Value::Tuple>(obj->v);
      return items[list_index(as_int(key), items.size())];
    }
    if (is_str(obj)) {
      const std::string& s = as_str(obj);
      return string(std::string(1, s[list_index(as_int(key), s.size())]));
    }
    if (is_dict(obj)) {
      auto v = dict_get(std::get<Value::Dict>(obj->v), key);
      if (!v) throw PyError("KeyError: " + to_repr(key));
      return *v;
    }
    throw PyError("TypeError: '" + type_name(obj) + "' object is not subscriptable");
  }

  Ref slice_get(const Ref& obj, const Ref& lo, const Ref& hi) {
    auto bounds = [&](size_t n) {
      int64_t b = lo ? as_int(lo) : 0;
      int64_t e = hi ? as_int(hi) : static_cast<int64_t>(n);
      if (b < 0) b += static_cast<int64_t>(n);
      if (e < 0) e += static_cast<int64_t>(n);
      b = std::clamp<int64_t>(b, 0, static_cast<int64_t>(n));
      e = std::clamp<int64_t>(e, 0, static_cast<int64_t>(n));
      if (e < b) e = b;
      return std::pair<size_t, size_t>(static_cast<size_t>(b), static_cast<size_t>(e));
    };
    if (is_str(obj)) {
      const std::string& s = as_str(obj);
      auto [b, e] = bounds(s.size());
      return string(s.substr(b, e - b));
    }
    if (is_list(obj)) {
      const auto& items = std::get<Value::List>(obj->v);
      auto [b, e] = bounds(items.size());
      return list(Value::List(items.begin() + static_cast<ptrdiff_t>(b),
                              items.begin() + static_cast<ptrdiff_t>(e)));
    }
    if (is_tuple(obj)) {
      const auto& items = std::get<Value::Tuple>(obj->v);
      auto [b, e] = bounds(items.size());
      return tuple(Value::Tuple(items.begin() + static_cast<ptrdiff_t>(b),
                                items.begin() + static_cast<ptrdiff_t>(e)));
    }
    throw PyError("TypeError: '" + type_name(obj) + "' object is not sliceable");
  }

  // ---- calls ----

  Ref call(const Expr& e) {
    // Method call: obj.name(args).
    if (e.a->kind == Expr::Kind::kAttribute) {
      Ref obj = eval(*e.a->a);
      if (!std::holds_alternative<Module>(obj->v)) {
        std::vector<Ref> args;
        for (const auto& arg : e.items) args.push_back(eval(*arg));
        return call_method(obj, e.a->name, args);
      }
    }
    Ref callee = eval(*e.a);
    std::vector<Ref> args;
    for (const auto& arg : e.items) args.push_back(eval(*arg));
    return call_function(callee, args);
  }

  Ref call_method(const Ref& obj, const std::string& name, std::vector<Ref>& args);

  Interpreter& in_;
  std::shared_ptr<const void> owner_;
};

// Method implementations live in builtins.cc to keep this file focused on
// evaluation; the declaration above is the hook.
Ref call_object_method(Evaluator& ev, Interpreter& in, const Ref& obj, const std::string& name,
                       std::vector<Ref>& args);

Ref Evaluator::call_method(const Ref& obj, const std::string& name, std::vector<Ref>& args) {
  return call_object_method(*this, in_, obj, name, args);
}

// ---- Interpreter facade ----

Interpreter::Interpreter() {
  print_ = [](const std::string& line) { std::fputs((line + "\n").c_str(), stdout); };
  install_builtins();
}

Interpreter::~Interpreter() = default;

void Interpreter::reset() {
  globals_.clear();
  builtins_.clear();
  frames_.clear();
  statements_ = 0;
  depth_ = 0;
  rng_ = Rng(0x9121);
  install_builtins();
}

std::string Interpreter::eval(const std::string& code, const std::string& expr) {
  auto block = parse_program(code);
  Evaluator ev(*this, block);
  try {
    ev.exec_block(*block);
  } catch (BreakSig&) {
    throw PyError("SyntaxError: 'break' outside loop");
  } catch (ContinueSig&) {
    throw PyError("SyntaxError: 'continue' outside loop");
  } catch (ReturnSig&) {
    throw PyError("SyntaxError: 'return' outside function");
  }
  if (expr.empty()) return "";
  return to_str(eval_expr(expr));
}

Ref Interpreter::eval_expr(const std::string& expr) {
  ExprP e = parse_expression(expr);
  Evaluator ev(*this, e);
  return ev.eval(*e);
}

void Interpreter::set_print_handler(std::function<void(const std::string&)> fn) {
  print_ = std::move(fn);
}

void Interpreter::set_global(const std::string& name, Ref value) {
  globals_[name] = std::move(value);
}

Ref Interpreter::get_global(const std::string& name) {
  auto it = globals_.find(name);
  return it == globals_.end() ? nullptr : it->second;
}

// install_builtins() and the module factories live in builtins.cc.


// ---- object methods ----

namespace {

void need_args(const std::string& name, const std::vector<Ref>& args, size_t lo, size_t hi) {
  if (args.size() < lo || args.size() > hi) {
    throw PyError("TypeError: " + name + "() takes " + std::to_string(lo) +
                  (hi == lo ? "" : ".." + std::to_string(hi)) + " arguments (" +
                  std::to_string(args.size()) + " given)");
  }
}

Ref str_method(const Ref& obj, const std::string& name, std::vector<Ref>& args) {
  const std::string& s = as_str(obj);
  if (name == "upper") {
    need_args(name, args, 0, 0);
    return string(str::to_upper(s));
  }
  if (name == "lower") {
    need_args(name, args, 0, 0);
    return string(str::to_lower(s));
  }
  if (name == "strip" || name == "lstrip" || name == "rstrip") {
    need_args(name, args, 0, 1);
    std::string chars = args.empty() ? " \t\n\r\v\f" : as_str(args[0]);
    std::string out = s;
    if (name != "rstrip") {
      size_t b = out.find_first_not_of(chars);
      out = b == std::string::npos ? "" : out.substr(b);
    }
    if (name != "lstrip") {
      size_t e = out.find_last_not_of(chars);
      out = e == std::string::npos ? "" : out.substr(0, e + 1);
    }
    return string(std::move(out));
  }
  if (name == "split") {
    need_args(name, args, 0, 1);
    Value::List out;
    if (args.empty()) {
      for (auto& part : str::split_ws(s)) out.push_back(string(std::move(part)));
    } else {
      const std::string& sep = as_str(args[0]);
      if (sep.empty()) throw PyError("ValueError: empty separator");
      size_t pos = 0;
      while (true) {
        size_t hit = s.find(sep, pos);
        if (hit == std::string::npos) {
          out.push_back(string(s.substr(pos)));
          break;
        }
        out.push_back(string(s.substr(pos, hit - pos)));
        pos = hit + sep.size();
      }
    }
    return list(std::move(out));
  }
  if (name == "join") {
    need_args(name, args, 1, 1);
    std::string out;
    bool first = true;
    Value::List items;
    if (is_list(args[0])) {
      items = std::get<Value::List>(args[0]->v);
    } else if (is_tuple(args[0])) {
      items = std::get<Value::Tuple>(args[0]->v);
    } else {
      throw PyError("TypeError: can only join an iterable");
    }
    for (const auto& item : items) {
      if (!first) out += s;
      first = false;
      out += as_str(item);
    }
    return string(std::move(out));
  }
  if (name == "replace") {
    need_args(name, args, 2, 2);
    return string(str::replace_all(s, as_str(args[0]), as_str(args[1])));
  }
  if (name == "startswith") {
    need_args(name, args, 1, 1);
    return boolean(str::starts_with(s, as_str(args[0])));
  }
  if (name == "endswith") {
    need_args(name, args, 1, 1);
    return boolean(str::ends_with(s, as_str(args[0])));
  }
  if (name == "find") {
    need_args(name, args, 1, 1);
    size_t pos = s.find(as_str(args[0]));
    return integer(pos == std::string::npos ? -1 : static_cast<int64_t>(pos));
  }
  if (name == "rfind") {
    need_args(name, args, 1, 1);
    size_t pos = s.rfind(as_str(args[0]));
    return integer(pos == std::string::npos ? -1 : static_cast<int64_t>(pos));
  }
  if (name == "count") {
    need_args(name, args, 1, 1);
    const std::string& needle = as_str(args[0]);
    if (needle.empty()) return integer(static_cast<int64_t>(s.size()) + 1);
    int64_t n = 0;
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return integer(n);
  }
  if (name == "isdigit") {
    need_args(name, args, 0, 0);
    if (s.empty()) return boolean(false);
    for (char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return boolean(false);
    }
    return boolean(true);
  }
  if (name == "isalpha") {
    need_args(name, args, 0, 0);
    if (s.empty()) return boolean(false);
    for (char c : s) {
      if (!std::isalpha(static_cast<unsigned char>(c))) return boolean(false);
    }
    return boolean(true);
  }
  if (name == "zfill") {
    need_args(name, args, 1, 1);
    int64_t width = as_int(args[0]);
    std::string out = s;
    while (static_cast<int64_t>(out.size()) < width) out.insert(0, "0");
    return string(std::move(out));
  }
  if (name == "format") {
    // Positional {} / {0} with optional :spec.
    std::string out;
    size_t next = 0;
    size_t i = 0;
    while (i < s.size()) {
      if (s.compare(i, 2, "{{") == 0) {
        out += '{';
        i += 2;
        continue;
      }
      if (s.compare(i, 2, "}}") == 0) {
        out += '}';
        i += 2;
        continue;
      }
      if (s[i] == '{') {
        size_t end = s.find('}', i);
        if (end == std::string::npos) throw PyError("ValueError: unmatched '{' in format");
        std::string field = s.substr(i + 1, end - i - 1);
        std::string spec;
        size_t colon = field.find(':');
        if (colon != std::string::npos) {
          spec = field.substr(colon + 1);
          field = field.substr(0, colon);
        }
        size_t index = field.empty() ? next++ : static_cast<size_t>(std::stoll(field));
        if (index >= args.size()) throw PyError("IndexError: format index out of range");
        out += apply_format_spec(args[index], spec);
        i = end + 1;
        continue;
      }
      out += s[i++];
    }
    return string(std::move(out));
  }
  throw PyError("AttributeError: 'str' object has no attribute '" + name + "'");
}

Ref list_method(const Ref& obj, const std::string& name, std::vector<Ref>& args) {
  auto& items = std::get<Value::List>(obj->v);
  if (name == "append") {
    need_args(name, args, 1, 1);
    items.push_back(args[0]);
    return none();
  }
  if (name == "extend") {
    need_args(name, args, 1, 1);
    if (is_list(args[0])) {
      const auto& rhs = std::get<Value::List>(args[0]->v);
      items.insert(items.end(), rhs.begin(), rhs.end());
    } else if (is_tuple(args[0])) {
      const auto& rhs = std::get<Value::Tuple>(args[0]->v);
      items.insert(items.end(), rhs.begin(), rhs.end());
    } else {
      throw PyError("TypeError: can only extend with an iterable");
    }
    return none();
  }
  if (name == "insert") {
    need_args(name, args, 2, 2);
    int64_t i = as_int(args[0]);
    if (i < 0) i += static_cast<int64_t>(items.size());
    i = std::clamp<int64_t>(i, 0, static_cast<int64_t>(items.size()));
    items.insert(items.begin() + static_cast<ptrdiff_t>(i), args[1]);
    return none();
  }
  if (name == "pop") {
    need_args(name, args, 0, 1);
    if (items.empty()) throw PyError("IndexError: pop from empty list");
    int64_t i = args.empty() ? static_cast<int64_t>(items.size()) - 1 : as_int(args[0]);
    if (i < 0) i += static_cast<int64_t>(items.size());
    if (i < 0 || i >= static_cast<int64_t>(items.size())) {
      throw PyError("IndexError: pop index out of range");
    }
    Ref out = items[static_cast<size_t>(i)];
    items.erase(items.begin() + static_cast<ptrdiff_t>(i));
    return out;
  }
  if (name == "remove") {
    need_args(name, args, 1, 1);
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (equal(*it, args[0])) {
        items.erase(it);
        return none();
      }
    }
    throw PyError("ValueError: list.remove(x): x not in list");
  }
  if (name == "index") {
    need_args(name, args, 1, 1);
    for (size_t i = 0; i < items.size(); ++i) {
      if (equal(items[i], args[0])) return integer(static_cast<int64_t>(i));
    }
    throw PyError("ValueError: " + to_repr(args[0]) + " is not in list");
  }
  if (name == "count") {
    need_args(name, args, 1, 1);
    int64_t n = 0;
    for (const auto& item : items) {
      if (equal(item, args[0])) ++n;
    }
    return integer(n);
  }
  if (name == "sort") {
    need_args(name, args, 0, 0);
    std::stable_sort(items.begin(), items.end(),
                     [](const Ref& a, const Ref& b) { return compare(a, b) < 0; });
    return none();
  }
  if (name == "reverse") {
    need_args(name, args, 0, 0);
    std::reverse(items.begin(), items.end());
    return none();
  }
  if (name == "copy") {
    need_args(name, args, 0, 0);
    return list(Value::List(items));
  }
  if (name == "clear") {
    need_args(name, args, 0, 0);
    items.clear();
    return none();
  }
  throw PyError("AttributeError: 'list' object has no attribute '" + name + "'");
}

Ref dict_method(const Ref& obj, const std::string& name, std::vector<Ref>& args) {
  auto& d = std::get<Value::Dict>(obj->v);
  if (name == "get") {
    need_args(name, args, 1, 2);
    auto v = dict_get(d, args[0]);
    if (v) return *v;
    return args.size() > 1 ? args[1] : none();
  }
  if (name == "keys") {
    need_args(name, args, 0, 0);
    Value::List out;
    for (const auto& [k, v] : d) {
      (void)v;
      out.push_back(k);
    }
    return list(std::move(out));
  }
  if (name == "values") {
    need_args(name, args, 0, 0);
    Value::List out;
    for (const auto& [k, v] : d) {
      (void)k;
      out.push_back(v);
    }
    return list(std::move(out));
  }
  if (name == "items") {
    need_args(name, args, 0, 0);
    Value::List out;
    for (const auto& [k, v] : d) out.push_back(tuple({k, v}));
    return list(std::move(out));
  }
  if (name == "pop") {
    need_args(name, args, 1, 2);
    auto v = dict_get(d, args[0]);
    if (v) {
      dict_del(d, args[0]);
      return *v;
    }
    if (args.size() > 1) return args[1];
    throw PyError("KeyError: " + to_repr(args[0]));
  }
  if (name == "update") {
    need_args(name, args, 1, 1);
    if (!is_dict(args[0])) throw PyError("TypeError: update() expects a dict");
    for (const auto& [k, v] : std::get<Value::Dict>(args[0]->v)) dict_set(d, k, v);
    return none();
  }
  if (name == "clear") {
    need_args(name, args, 0, 0);
    d.clear();
    return none();
  }
  if (name == "copy") {
    need_args(name, args, 0, 0);
    return dict(Value::Dict(d));
  }
  throw PyError("AttributeError: 'dict' object has no attribute '" + name + "'");
}

}  // namespace

Ref call_object_method(Evaluator& ev, Interpreter& in, const Ref& obj, const std::string& name,
                       std::vector<Ref>& args) {
  (void)ev;
  (void)in;
  if (is_str(obj)) return str_method(obj, name, args);
  if (is_list(obj)) return list_method(obj, name, args);
  if (is_dict(obj)) return dict_method(obj, name, args);
  throw PyError("AttributeError: '" + type_name(obj) + "' object has no attribute '" + name +
                "'");
}

}  // namespace ilps::py
