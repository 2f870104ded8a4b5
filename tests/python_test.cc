// MiniPy: the embedded Python-subset interpreter.
#include <gtest/gtest.h>

#include "python/interp.h"

namespace ilps::py {
namespace {

class PyTest : public ::testing::Test {
 protected:
  PyTest() {
    in.set_print_handler([this](const std::string& line) { output += line + "\n"; });
  }
  // Runs code, returns str(expr) — the Swift/T python() calling convention.
  std::string ev(const std::string& code, const std::string& expr = "") {
    return in.eval(code, expr);
  }
  std::string ex(const std::string& expr) { return in.eval("", expr); }

  Interpreter in;
  std::string output;
};

// ---- literals and arithmetic ----

TEST_F(PyTest, Arithmetic) {
  EXPECT_EQ(ex("1 + 2 * 3"), "7");
  EXPECT_EQ(ex("(1 + 2) * 3"), "9");
  EXPECT_EQ(ex("7 // 2"), "3");
  EXPECT_EQ(ex("-7 // 2"), "-4");
  EXPECT_EQ(ex("7 % 3"), "1");
  EXPECT_EQ(ex("-7 % 3"), "2");
  EXPECT_EQ(ex("7 / 2"), "3.5");
  EXPECT_EQ(ex("2 ** 10"), "1024");
  EXPECT_EQ(ex("2 ** -1"), "0.5");
  EXPECT_EQ(ex("-2 ** 2"), "-4");  // unary binds looser than **
  EXPECT_EQ(ex("10 - 3 - 2"), "5");
}

TEST_F(PyTest, FloatFormatting) {
  EXPECT_EQ(ex("1.5 + 2.5"), "4.0");
  EXPECT_EQ(ex("0.1 + 0.2"), "0.30000000000000004");
  EXPECT_EQ(ex("1e3"), "1000.0");
}

TEST_F(PyTest, BitOps) {
  EXPECT_EQ(ex("6 & 3"), "2");
  EXPECT_EQ(ex("6 | 3"), "7");
  EXPECT_EQ(ex("6 ^ 3"), "5");
  EXPECT_EQ(ex("1 << 4"), "16");
  EXPECT_EQ(ex("~0"), "-1");
}

TEST_F(PyTest, Strings) {
  EXPECT_EQ(ex("'a' + \"b\""), "ab");
  EXPECT_EQ(ex("'ab' * 3"), "ababab");
  EXPECT_EQ(ex("'a' 'b' 'c'"), "abc");  // adjacent concatenation
  EXPECT_EQ(ex("len('hello')"), "5");
  EXPECT_EQ(ex("'hello'[1]"), "e");
  EXPECT_EQ(ex("'hello'[-1]"), "o");
  EXPECT_EQ(ex("'hello'[1:3]"), "el");
  EXPECT_EQ(ex("'hello'[:2]"), "he");
  EXPECT_EQ(ex("'hello'[2:]"), "llo");
  EXPECT_EQ(ex("'hello'[-3:]"), "llo");
  EXPECT_EQ(ex("'a\\tb'"), "a\tb");
}

TEST_F(PyTest, Booleans) {
  EXPECT_EQ(ex("True and False"), "False");
  EXPECT_EQ(ex("True or False"), "True");
  EXPECT_EQ(ex("not 0"), "True");
  EXPECT_EQ(ex("1 < 2 < 3"), "True");   // chained
  EXPECT_EQ(ex("1 < 2 > 3"), "False");
  EXPECT_EQ(ex("None is None"), "True");
  EXPECT_EQ(ex("1 == 1.0"), "True");
  EXPECT_EQ(ex("True == 1"), "True");
  EXPECT_EQ(ex("'a' != 'b'"), "True");
}

TEST_F(PyTest, ShortCircuitValues) {
  EXPECT_EQ(ex("0 or 'default'"), "default");
  EXPECT_EQ(ex("'x' and 'y'"), "y");
  EXPECT_EQ(ex("[] or [1]"), "[1]");
}

TEST_F(PyTest, Ternary) {
  EXPECT_EQ(ex("'big' if 10 > 5 else 'small'"), "big");
  EXPECT_EQ(ex("'big' if 1 > 5 else 'small'"), "small");
}

// ---- collections ----

TEST_F(PyTest, Lists) {
  EXPECT_EQ(ex("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(ex("len([1, 2, 3])"), "3");
  EXPECT_EQ(ex("[1, 2] + [3]"), "[1, 2, 3]");
  EXPECT_EQ(ex("[0] * 3"), "[0, 0, 0]");
  EXPECT_EQ(ex("[1, 2, 3][1]"), "2");
  EXPECT_EQ(ex("[1, 2, 3][-1]"), "3");
  EXPECT_EQ(ex("[1, 2, 3, 4][1:3]"), "[2, 3]");
  EXPECT_EQ(ex("2 in [1, 2]"), "True");
  EXPECT_EQ(ex("5 not in [1, 2]"), "True");
}

TEST_F(PyTest, ListMethodsAndAliasing) {
  ev("a = [1, 2]\nb = a\nb.append(3)");
  EXPECT_EQ(ex("a"), "[1, 2, 3]");  // aliasing: both names see the append
  ev("a.extend([4, 5])\na.insert(0, 0)");
  EXPECT_EQ(ex("a"), "[0, 1, 2, 3, 4, 5]");
  EXPECT_EQ(ev("x = a.pop()", "x"), "5");
  ev("a.remove(0)");
  EXPECT_EQ(ex("a"), "[1, 2, 3, 4]");
  EXPECT_EQ(ex("a.index(3)"), "2");
  EXPECT_EQ(ex("[1, 1, 2].count(1)"), "2");
  ev("c = [3, 1, 2]\nc.sort()");
  EXPECT_EQ(ex("c"), "[1, 2, 3]");
  ev("c.reverse()");
  EXPECT_EQ(ex("c"), "[3, 2, 1]");
}

TEST_F(PyTest, Dicts) {
  ev("d = {'a': 1, 'b': 2}");
  EXPECT_EQ(ex("d['a']"), "1");
  EXPECT_EQ(ex("len(d)"), "2");
  EXPECT_EQ(ex("'a' in d"), "True");
  EXPECT_EQ(ex("'z' in d"), "False");
  ev("d['c'] = 3\nd['a'] = 10");
  EXPECT_EQ(ex("d['a']"), "10");
  EXPECT_EQ(ex("sorted(d.keys())"), "['a', 'b', 'c']");
  EXPECT_EQ(ex("d.get('z', 99)"), "99");
  EXPECT_EQ(ex("d.items()[0]"), "('a', 10)");
  ev("del d['a']");
  EXPECT_EQ(ex("'a' in d"), "False");
  EXPECT_EQ(ex("{1: 'x'}[1]"), "x");
}

TEST_F(PyTest, Tuples) {
  EXPECT_EQ(ex("(1, 2)[0]"), "1");
  EXPECT_EQ(ex("len((1, 2, 3))"), "3");
  EXPECT_EQ(ex("(1,)"), "(1,)");
  EXPECT_EQ(ex("()"), "()");
  ev("a, b = 1, 2");
  EXPECT_EQ(ex("a + b"), "3");
  ev("a, b = b, a");
  EXPECT_EQ(ex("(a, b)"), "(2, 1)");
}

TEST_F(PyTest, ListComprehension) {
  EXPECT_EQ(ex("[x * x for x in range(5)]"), "[0, 1, 4, 9, 16]");
  EXPECT_EQ(ex("[x for x in range(10) if x % 2 == 0]"), "[0, 2, 4, 6, 8]");
  EXPECT_EQ(ex("[k + v for k, v in [('a', 'x'), ('b', 'y')]]"), "['ax', 'by']");
}

// ---- control flow and functions ----

TEST_F(PyTest, IfElifElse) {
  const char* code =
      "def classify(n):\n"
      "    if n < 0:\n"
      "        return 'neg'\n"
      "    elif n == 0:\n"
      "        return 'zero'\n"
      "    else:\n"
      "        return 'pos'\n";
  ev(code);
  EXPECT_EQ(ex("classify(-5)"), "neg");
  EXPECT_EQ(ex("classify(0)"), "zero");
  EXPECT_EQ(ex("classify(3)"), "pos");
}

TEST_F(PyTest, WhileLoop) {
  ev("i = 0\ntotal = 0\nwhile i < 10:\n    i += 1\n    if i % 2: continue\n    if i > 8: break\n    total += i");
  EXPECT_EQ(ex("total"), "20");  // 2+4+6+8
}

TEST_F(PyTest, ForLoop) {
  ev("total = 0\nfor i in range(1, 5):\n    total += i");
  EXPECT_EQ(ex("total"), "10");
  ev("s = ''\nfor c in 'abc':\n    s += c + '.'");
  EXPECT_EQ(ex("s"), "a.b.c.");
  ev("pairs = ''\nfor k, v in [(1, 'a'), (2, 'b')]:\n    pairs += str(k) + v");
  EXPECT_EQ(ex("pairs"), "1a2b");
}

TEST_F(PyTest, FunctionsAndDefaults) {
  ev("def add(a, b=10):\n    return a + b");
  EXPECT_EQ(ex("add(1, 2)"), "3");
  EXPECT_EQ(ex("add(5)"), "15");
  EXPECT_THROW(ex("add()"), PyError);
  EXPECT_THROW(ex("add(1, 2, 3)"), PyError);
}

TEST_F(PyTest, Recursion) {
  ev("def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)");
  EXPECT_EQ(ex("fib(15)"), "610");
}

TEST_F(PyTest, RecursionLimit) {
  ev("def loop():\n    return loop()");
  EXPECT_THROW(ex("loop()"), PyError);
}

TEST_F(PyTest, LocalsDontLeak) {
  ev("x = 'global'\ndef f():\n    x = 'local'\n    return x");
  EXPECT_EQ(ex("f()"), "local");
  EXPECT_EQ(ex("x"), "global");
}

TEST_F(PyTest, GlobalStatement) {
  ev("count = 0\ndef bump():\n    global count\n    count += 1");
  ev("bump()\nbump()");
  EXPECT_EQ(ex("count"), "2");
}

TEST_F(PyTest, Lambda) {
  ev("double = lambda x: x * 2");
  EXPECT_EQ(ex("double(21)"), "42");
  EXPECT_EQ(ex("(lambda a, b=3: a + b)(1)"), "4");
}

TEST_F(PyTest, NestedFunctions) {
  ev("def outer(n):\n    def inner(m):\n        return m + 1\n    return inner(n) * 2");
  EXPECT_EQ(ex("outer(5)"), "12");
}

// ---- builtins ----

TEST_F(PyTest, Builtins) {
  EXPECT_EQ(ex("abs(-3)"), "3");
  EXPECT_EQ(ex("abs(-3.5)"), "3.5");
  EXPECT_EQ(ex("min(3, 1, 2)"), "1");
  EXPECT_EQ(ex("max([3, 1, 2])"), "3");
  EXPECT_EQ(ex("sum([1, 2, 3])"), "6");
  EXPECT_EQ(ex("sum([1.5, 2.5])"), "4.0");
  EXPECT_EQ(ex("sorted([3, 1, 2])"), "[1, 2, 3]");
  EXPECT_EQ(ex("reversed([1, 2])"), "[2, 1]");
  EXPECT_EQ(ex("round(3.7)"), "4");
  EXPECT_EQ(ex("round(3.14159, 2)"), "3.14");
  EXPECT_EQ(ex("int('42')"), "42");
  EXPECT_EQ(ex("int(3.9)"), "3");
  EXPECT_EQ(ex("float('2.5')"), "2.5");
  EXPECT_EQ(ex("str(42)"), "42");
  EXPECT_EQ(ex("repr('a')"), "'a'");
  EXPECT_EQ(ex("list('abc')"), "['a', 'b', 'c']");
  EXPECT_EQ(ex("range(3)"), "[0, 1, 2]");
  EXPECT_EQ(ex("range(2, 8, 2)"), "[2, 4, 6]");
  EXPECT_EQ(ex("range(3, 0, -1)"), "[3, 2, 1]");
  EXPECT_EQ(ex("enumerate(['a', 'b'])"), "[(0, 'a'), (1, 'b')]");
  EXPECT_EQ(ex("zip([1, 2], ['a', 'b'])"), "[(1, 'a'), (2, 'b')]");
  EXPECT_EQ(ex("bool([])"), "False");
  EXPECT_EQ(ex("type(1)"), "<class 'int'>");
}

TEST_F(PyTest, Print) {
  ev("print('hello', 42)");
  ev("print([1, 2])");
  EXPECT_EQ(output, "hello 42\n[1, 2]\n");
}

TEST_F(PyTest, StringMethods) {
  EXPECT_EQ(ex("'AbC'.upper()"), "ABC");
  EXPECT_EQ(ex("'AbC'.lower()"), "abc");
  EXPECT_EQ(ex("'  x  '.strip()"), "x");
  EXPECT_EQ(ex("'a,b,c'.split(',')"), "['a', 'b', 'c']");
  EXPECT_EQ(ex("'a b  c'.split()"), "['a', 'b', 'c']");
  EXPECT_EQ(ex("'-'.join(['a', 'b'])"), "a-b");
  EXPECT_EQ(ex("'hello'.replace('l', 'L')"), "heLLo");
  EXPECT_EQ(ex("'hello'.startswith('he')"), "True");
  EXPECT_EQ(ex("'hello'.endswith('lo')"), "True");
  EXPECT_EQ(ex("'hello'.find('ll')"), "2");
  EXPECT_EQ(ex("'hello'.find('z')"), "-1");
  EXPECT_EQ(ex("'123'.isdigit()"), "True");
  EXPECT_EQ(ex("'12a'.isdigit()"), "False");
  EXPECT_EQ(ex("'7'.zfill(3)"), "007");
  EXPECT_EQ(ex("'x={} y={}'.format(1, 2)"), "x=1 y=2");
  EXPECT_EQ(ex("'{0}{0}'.format('ab')"), "abab");
  EXPECT_EQ(ex("'{:.2f}'.format(3.14159)"), "3.14");
}

TEST_F(PyTest, PercentFormatting) {
  EXPECT_EQ(ex("'%d-%s' % (42, 'x')"), "42-x");
  EXPECT_EQ(ex("'%.3f' % 3.14159"), "3.142");
  EXPECT_EQ(ex("'%05d' % 42"), "00042");
}

TEST_F(PyTest, FStrings) {
  ev("name = 'world'\nn = 3");
  EXPECT_EQ(ex("f'hello {name}'"), "hello world");
  EXPECT_EQ(ex("f'{n + 1} items'"), "4 items");
  EXPECT_EQ(ex("f'{3.14159:.2f}'"), "3.14");
  EXPECT_EQ(ex("f'{{literal}}'"), "{literal}");
  EXPECT_EQ(ex("f'{n}{n}{n}'"), "333");
}

// ---- modules ----

TEST_F(PyTest, MathModule) {
  ev("import math");
  EXPECT_EQ(ex("math.sqrt(16)"), "4.0");
  EXPECT_EQ(ex("math.floor(2.7)"), "2");
  EXPECT_EQ(ex("math.ceil(2.2)"), "3");
  EXPECT_EQ(ex("round(math.pi, 5)"), "3.14159");
  EXPECT_EQ(ex("math.pow(2, 8)"), "256.0");
  EXPECT_THROW(ex("math.nonexistent(1)"), PyError);
}

TEST_F(PyTest, RandomModuleDeterministic) {
  ev("import random\nrandom.seed(7)\na = random.random()");
  ev("random.seed(7)\nb = random.random()");
  EXPECT_EQ(ex("a == b"), "True");
  EXPECT_EQ(ex("0.0 <= a < 1.0"), "True");
  ev("r = random.randint(1, 6)");
  EXPECT_EQ(ex("1 <= r <= 6"), "True");
  EXPECT_EQ(ex("random.choice([5]) == 5"), "True");
}

TEST_F(PyTest, UnknownModule) {
  EXPECT_THROW(ev("import numpy"), PyError);
}

// ---- state persistence (the paper's retain-vs-reinit semantics) ----

TEST_F(PyTest, StatePersistsAcrossEvals) {
  ev("counter = 0");
  ev("counter += 1");
  ev("counter += 1");
  EXPECT_EQ(ex("counter"), "2");
  ev("def helper():\n    return 'still here'");
  EXPECT_EQ(ex("helper()"), "still here");
}

TEST_F(PyTest, ResetClearsState) {
  ev("x = 42\ndef f():\n    return x");
  EXPECT_EQ(ex("x"), "42");
  in.reset();
  EXPECT_THROW(ex("x"), PyError);
  EXPECT_THROW(ex("f()"), PyError);
  // Builtins are back after reset.
  EXPECT_EQ(ex("len([1])"), "1");
}

TEST_F(PyTest, SetAndGetGlobals) {
  in.set_global("injected", integer(99));
  EXPECT_EQ(ex("injected + 1"), "100");
  ev("result = injected * 2");
  Ref r = in.get_global("result");
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(as_int(r), 198);
  EXPECT_EQ(in.get_global("missing"), nullptr);
}

// ---- errors ----

TEST_F(PyTest, Errors) {
  EXPECT_THROW(ex("undefined_name"), PyError);
  EXPECT_THROW(ex("1 / 0"), PyError);
  EXPECT_THROW(ex("1 // 0"), PyError);
  EXPECT_THROW(ex("[1][5]"), PyError);
  EXPECT_THROW(ex("{'a': 1}['b']"), PyError);
  EXPECT_THROW(ex("'a' + 1"), PyError);
  EXPECT_THROW(ex("len(1)"), PyError);
  EXPECT_THROW(ev("if True\n    pass"), PyError);   // missing colon
  EXPECT_THROW(ev("def f(:\n    pass"), PyError);
  EXPECT_THROW(ev("  x = 1"), PyError);             // stray indent...
}

TEST_F(PyTest, ErrorMessagesNamed) {
  try {
    ex("nope");
    FAIL();
  } catch (const PyError& e) {
    EXPECT_NE(std::string(e.what()).find("NameError"), std::string::npos);
  }
  try {
    ex("1 / 0");
    FAIL();
  } catch (const PyError& e) {
    EXPECT_NE(std::string(e.what()).find("ZeroDivisionError"), std::string::npos);
  }
}

TEST_F(PyTest, StatementCounter) {
  uint64_t before = in.statements_executed();
  ev("x = 1\ny = 2");
  EXPECT_EQ(in.statements_executed(), before + 2);
}

TEST_F(PyTest, DictMethodsExtended) {
  ev("d = {'a': 1}");
  ev("d.update({'b': 2, 'a': 9})");
  EXPECT_EQ(ex("d['a']"), "9");
  EXPECT_EQ(ex("d.pop('b')"), "2");
  EXPECT_EQ(ex("'b' in d"), "False");
  EXPECT_EQ(ex("d.pop('zz', 'dflt')"), "dflt");
  EXPECT_THROW(ex("d.pop('zz')"), PyError);
  ev("e = d.copy()\ne['a'] = 1");
  EXPECT_EQ(ex("d['a']"), "9");  // copy is independent
  ev("d.clear()");
  EXPECT_EQ(ex("len(d)"), "0");
}

TEST_F(PyTest, AugmentedAssignVariants) {
  ev("x = 10\nx -= 3\nx *= 2\nx //= 4\nx **= 3\nx %= 5");
  // ((10-3)*2)//4 = 3; 3**3 = 27; 27%5 = 2.
  EXPECT_EQ(ex("x"), "2");
  ev("l = [1]\nl += [2, 3]");
  EXPECT_EQ(ex("l"), "[1, 2, 3]");
  ev("d2 = {'k': 1}\nd2['k'] += 5");
  EXPECT_EQ(ex("d2['k']"), "6");
}

TEST_F(PyTest, NegativePowerAndChainedCompare) {
  EXPECT_EQ(ex("10 ** 0"), "1");
  EXPECT_EQ(ex("0 <= 5 <= 10 <= 10"), "True");
  EXPECT_EQ(ex("1 == 1 == 2"), "False");
}

TEST_F(PyTest, WhitespaceAndCommentRobustness) {
  EXPECT_EQ(ev("# leading comment\n\n\nx = 1  # trailing\n\n", "x"), "1");
  EXPECT_EQ(ev("y = (1 +\n     2 +\n     3)", "y"), "6");   // implicit joining
  EXPECT_EQ(ev("z = 1 + \\\n    1", "z"), "2");              // explicit continuation
}

// ---- exceptions ----

TEST_F(PyTest, TryExceptCatches) {
  ev("try:\n    x = 1 / 0\nexcept:\n    x = 'caught'");
  EXPECT_EQ(ex("x"), "caught");
}

TEST_F(PyTest, TryExceptByType) {
  ev(
      "def probe(v):\n"
      "    try:\n"
      "        return 10 / v\n"
      "    except ZeroDivisionError:\n"
      "        return -1\n");
  EXPECT_EQ(ex("probe(2)"), "5.0");
  EXPECT_EQ(ex("probe(0)"), "-1");
}

TEST_F(PyTest, TryExceptAsBindsMessage) {
  ev("try:\n    nope\nexcept NameError as e:\n    msg = e");
  EXPECT_NE(ex("msg").find("NameError"), std::string::npos);
}

TEST_F(PyTest, TryExceptWrongTypeRethrows) {
  EXPECT_THROW(ev("try:\n    1 / 0\nexcept NameError:\n    pass"), PyError);
}

TEST_F(PyTest, MultipleHandlers) {
  ev(
      "def classify(code):\n"
      "    try:\n"
      "        if code == 1:\n"
      "            raise ValueError('v')\n"
      "        raise KeyError('k')\n"
      "    except ValueError:\n"
      "        return 'value'\n"
      "    except KeyError:\n"
      "        return 'key'\n");
  EXPECT_EQ(ex("classify(1)"), "value");
  EXPECT_EQ(ex("classify(2)"), "key");
}

TEST_F(PyTest, FinallyAlwaysRuns) {
  ev("log = []\ntry:\n    log.append('body')\nfinally:\n    log.append('fin')");
  EXPECT_EQ(ex("log"), "['body', 'fin']");
  // On error paths too.
  ev("log2 = []");
  EXPECT_THROW(ev("try:\n    1 / 0\nfinally:\n    log2.append('fin')"), PyError);
  EXPECT_EQ(ex("log2"), "['fin']");
  // And through return.
  ev(
      "order = []\n"
      "def f():\n"
      "    try:\n"
      "        return 'ret'\n"
      "    finally:\n"
      "        order.append('fin')\n");
  EXPECT_EQ(ex("f()"), "ret");
  EXPECT_EQ(ex("order"), "['fin']");
}

TEST_F(PyTest, RaiseCustomMessage) {
  try {
    ev("raise ValueError('bad input 42')");
    FAIL();
  } catch (const PyError& e) {
    EXPECT_STREQ(e.what(), "ValueError: bad input 42");
  }
  EXPECT_THROW(ev("raise RuntimeError"), PyError);
}

TEST_F(PyTest, TryWithoutHandlerIsSyntaxError) {
  EXPECT_THROW(ev("try:\n    pass"), PyError);
}

// ---- a realistic leaf-task fragment (Monte Carlo partial sum) ----

TEST_F(PyTest, MonteCarloFragment) {
  const char* code =
      "import random\n"
      "random.seed(42)\n"
      "inside = 0\n"
      "n = 1000\n"
      "for i in range(n):\n"
      "    x = random.random()\n"
      "    y = random.random()\n"
      "    if x * x + y * y <= 1.0:\n"
      "        inside += 1\n"
      "pi_est = 4.0 * inside / n\n";
  std::string result = ev(code, "pi_est");
  double pi = std::stod(result);
  EXPECT_GT(pi, 2.8);
  EXPECT_LT(pi, 3.5);
}

// A function keeps the AST that defines it alive, not the latest eval's:
// a closure made by calling a function defined in eval 1 (from eval N)
// still runs after every other reference to eval 1's code is gone.
TEST_F(PyTest, FunctionsOutliveTheirDefiningEval) {
  ev("def outer(k):\n"
     "    def inner(x, k=k):\n"
     "        return x + k\n"
     "    return inner\n"
     "add3 = outer(3)\n"
     "sq = lambda v: v * v\n");
  for (int i = 0; i < 20; ++i) ev("junk = [j * " + std::to_string(i) + " for j in range(10)]");
  ev("add10 = outer(10)");
  EXPECT_EQ(ex("add3(4)"), "7");
  ev("outer = None\nadd3 = None");
  EXPECT_EQ(ex("add10(1)"), "11");
  EXPECT_EQ(ex("sq(5)"), "25");
}

}  // namespace
}  // namespace ilps::py
