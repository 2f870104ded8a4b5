// MiniR: the embedded R-subset interpreter.
#include <gtest/gtest.h>

#include "rlang/interp.h"

namespace ilps::r {
namespace {

class RTest : public ::testing::Test {
 protected:
  RTest() {
    in.set_output_handler([this](const std::string& s) { output += s; });
  }
  std::string ev(const std::string& code) { return in.eval(code); }
  // Swift/T R() convention.
  std::string ev2(const std::string& code, const std::string& expr) {
    return in.eval(code, expr);
  }
  Interpreter in;
  std::string output;
};

// ---- vectors and arithmetic ----

TEST_F(RTest, ScalarsArePrintedLikeR) {
  EXPECT_EQ(ev("42"), "42");
  EXPECT_EQ(ev("42.5"), "42.5");
  EXPECT_EQ(ev("-3"), "-3");
  EXPECT_EQ(ev("TRUE"), "TRUE");
  EXPECT_EQ(ev("\"hi\""), "\"hi\"");
  EXPECT_EQ(ev("NULL"), "NULL");
}

TEST_F(RTest, VectorizedArithmetic) {
  EXPECT_EQ(ev("c(1, 2, 3) + c(10, 20, 30)"), "c(11, 22, 33)");
  EXPECT_EQ(ev("c(1, 2, 3) * 2"), "c(2, 4, 6)");  // recycling
  EXPECT_EQ(ev("c(1, 2, 3, 4) + c(10, 20)"), "c(11, 22, 13, 24)");
  EXPECT_EQ(ev("2 ^ c(1, 2, 3)"), "c(2, 4, 8)");
  EXPECT_EQ(ev("7 %% 3"), "1");
  EXPECT_EQ(ev("-7 %% 3"), "2");
  EXPECT_EQ(ev("7 %/% 2"), "3");
  EXPECT_EQ(ev("1 / 2"), "0.5");
}

TEST_F(RTest, ColonSequence) {
  EXPECT_EQ(ev("1:5"), "c(1, 2, 3, 4, 5)");
  EXPECT_EQ(ev("5:1"), "c(5, 4, 3, 2, 1)");
  EXPECT_EQ(ev("sum(1:100)"), "5050");
}

TEST_F(RTest, Comparisons) {
  EXPECT_EQ(ev("c(1, 5, 3) > 2"), "c(FALSE, TRUE, TRUE)");
  EXPECT_EQ(ev("\"a\" < \"b\""), "TRUE");
  EXPECT_EQ(ev("c(1, 2) == c(1, 3)"), "c(TRUE, FALSE)");
  EXPECT_EQ(ev("1 == \"1\""), "TRUE");  // character coercion
}

TEST_F(RTest, LogicalOps) {
  EXPECT_EQ(ev("TRUE & c(TRUE, FALSE)"), "c(TRUE, FALSE)");
  EXPECT_EQ(ev("FALSE | TRUE"), "TRUE");
  EXPECT_EQ(ev("TRUE && FALSE"), "FALSE");
  EXPECT_EQ(ev("FALSE || TRUE"), "TRUE");
  EXPECT_EQ(ev("!c(TRUE, FALSE)"), "c(FALSE, TRUE)");
}

TEST_F(RTest, Assignment) {
  EXPECT_EQ(ev("x <- 5\nx + 1"), "6");
  EXPECT_EQ(ev("y = 10\ny"), "10");
  EXPECT_EQ(ev("z <- w <- 3\nz + w"), "6");
}

// ---- indexing ----

TEST_F(RTest, Indexing1Based) {
  ev("v <- c(10, 20, 30)");
  EXPECT_EQ(ev("v[1]"), "10");
  EXPECT_EQ(ev("v[3]"), "30");
  EXPECT_EQ(ev("v[c(1, 3)]"), "c(10, 30)");
  EXPECT_EQ(ev("v[2:3]"), "c(20, 30)");
  EXPECT_THROW(ev("v[4]"), RError);
}

TEST_F(RTest, NegativeIndexExcludes) {
  ev("v <- c(10, 20, 30)");
  EXPECT_EQ(ev("v[-2]"), "c(10, 30)");
  EXPECT_EQ(ev("v[-c(1, 3)]"), "20");
}

TEST_F(RTest, LogicalMask) {
  ev("v <- c(1, 2, 3, 4)");
  EXPECT_EQ(ev("v[v > 2]"), "c(3, 4)");
  EXPECT_EQ(ev("v[c(TRUE, FALSE)]"), "c(1, 3)");  // recycled mask
}

TEST_F(RTest, IndexAssignmentCopySemantics) {
  ev("x <- c(1, 2, 3)\ny <- x\ny[1] <- 99");
  EXPECT_EQ(ev("x[1]"), "1");  // R value semantics: x unchanged
  EXPECT_EQ(ev("y[1]"), "99");
}

TEST_F(RTest, IndexAssignmentExtends) {
  ev("v <- c(1)\nv[3] <- 7");
  EXPECT_EQ(ev("v"), "c(1, 0, 7)");
}

TEST_F(RTest, Lists) {
  ev("l <- list(a = 1, b = \"two\", 3)");
  EXPECT_EQ(ev("l$a"), "1");
  EXPECT_EQ(ev("l$b"), "\"two\"");
  EXPECT_EQ(ev("l[[3]]"), "3");
  EXPECT_EQ(ev("l[[\"a\"]]"), "1");
  EXPECT_EQ(ev("length(l)"), "3");
  ev("l$c <- 4");
  EXPECT_EQ(ev("l$c"), "4");
  ev("l[[1]] <- 100");
  EXPECT_EQ(ev("l$a"), "100");
  EXPECT_EQ(ev("names(l)"), "c(\"a\", \"b\", \"\", \"c\")");
}

TEST_F(RTest, NestedListIndex) {
  ev("l <- list(inner = list(x = 42))");
  EXPECT_EQ(ev("l$inner$x"), "42");
  EXPECT_EQ(ev("l[[1]][[1]]"), "42");
}

// ---- control flow ----

TEST_F(RTest, IfIsAnExpression) {
  EXPECT_EQ(ev("if (TRUE) 1 else 2"), "1");
  EXPECT_EQ(ev("if (FALSE) 1 else 2"), "2");
  EXPECT_EQ(ev("if (FALSE) 1"), "NULL");
  EXPECT_EQ(ev("x <- if (3 > 2) \"yes\" else \"no\"\nx"), "\"yes\"");
}

TEST_F(RTest, ForLoop) {
  EXPECT_EQ(ev("s <- 0\nfor (i in 1:10) s <- s + i\ns"), "55");
  EXPECT_EQ(ev("out <- \"\"\nfor (w in c(\"a\", \"b\")) out <- paste0(out, w)\nout"),
            "\"ab\"");
}

TEST_F(RTest, WhileAndBreakNext) {
  EXPECT_EQ(ev("i <- 0\nwhile (TRUE) {\n  i <- i + 1\n  if (i >= 5) break\n}\ni"), "5");
  EXPECT_EQ(ev("s <- 0\nfor (i in 1:10) {\n  if (i %% 2 == 0) next\n  s <- s + i\n}\ns"),
            "25");
}

TEST_F(RTest, RepeatLoop) {
  EXPECT_EQ(ev("n <- 0\nrepeat {\n  n <- n + 1\n  if (n == 3) break\n}\nn"), "3");
}

// ---- functions ----

TEST_F(RTest, FunctionDefinitionAndCall) {
  ev("square <- function(x) x * x");
  EXPECT_EQ(ev("square(7)"), "49");
  ev("add <- function(a, b = 10) a + b");
  EXPECT_EQ(ev("add(1, 2)"), "3");
  EXPECT_EQ(ev("add(5)"), "15");
  EXPECT_EQ(ev("add(b = 1, a = 2)"), "3");  // named argument matching
}

TEST_F(RTest, FunctionBlockAndReturn) {
  ev("f <- function(n) {\n  if (n < 0) return(\"neg\")\n  \"pos\"\n}");
  EXPECT_EQ(ev("f(-1)"), "\"neg\"");
  EXPECT_EQ(ev("f(1)"), "\"pos\"");
}

TEST_F(RTest, LexicalClosures) {
  ev("make_counter <- function() {\n  n <- 0\n  function() {\n    n <<- n + 1\n    n\n  }\n}");
  ev("counter <- make_counter()");
  EXPECT_EQ(ev("counter()"), "1");
  EXPECT_EQ(ev("counter()"), "2");
  ev("other <- make_counter()");
  EXPECT_EQ(ev("other()"), "1");   // independent environment
  EXPECT_EQ(ev("counter()"), "3");
}

TEST_F(RTest, Recursion) {
  ev("fact <- function(n) if (n <= 1) 1 else n * fact(n - 1)");
  EXPECT_EQ(ev("fact(10)"), "3628800");
}

TEST_F(RTest, RecursionLimit) {
  ev("inf <- function() inf()");
  EXPECT_THROW(ev("inf()"), RError);
}

// A call that fails while matching its arguments must give back its
// recursion level: 300 failures (the depth limit) leave the interpreter
// able to call functions.
TEST_F(RTest, FailedArgumentMatchingKeepsDepth) {
  ev("f <- function(x) x + 1");
  for (int i = 0; i < 300; ++i) {
    EXPECT_THROW(ev("f(y = 2)"), RError);  // unused argument
    EXPECT_THROW(ev("f()"), RError);       // missing argument
  }
  EXPECT_EQ(ev("f(1)"), "2");
}

TEST_F(RTest, LocalScope) {
  ev("x <- 1\nf <- function() {\n  x <- 2\n  x\n}");
  EXPECT_EQ(ev("f()"), "2");
  EXPECT_EQ(ev("x"), "1");
}

// ---- builtins ----

TEST_F(RTest, Statistics) {
  EXPECT_EQ(ev("mean(c(1, 2, 3, 4))"), "2.5");
  EXPECT_EQ(ev("sum(1:4)"), "10");
  EXPECT_EQ(ev("var(c(1, 2, 3, 4, 5))"), "2.5");
  EXPECT_EQ(ev("sd(c(2, 4, 4, 4, 5, 5, 7, 9))"), "2.138089935299395");
  EXPECT_EQ(ev("min(3, 1, 2)"), "1");
  EXPECT_EQ(ev("max(c(3, 1), 7)"), "7");
  EXPECT_EQ(ev("range(c(4, 1, 9))"), "c(1, 9)");
  EXPECT_EQ(ev("prod(1:5)"), "120");
  EXPECT_EQ(ev("cumsum(c(1, 2, 3))"), "c(1, 3, 6)");
}

TEST_F(RTest, SeqRepSort) {
  EXPECT_EQ(ev("seq(1, 10, by = 3)"), "c(1, 4, 7, 10)");
  EXPECT_EQ(ev("seq(0, 1, length.out = 5)"), "c(0, 0.25, 0.5, 0.75, 1)");
  EXPECT_EQ(ev("seq_len(4)"), "c(1, 2, 3, 4)");
  EXPECT_EQ(ev("rep(c(1, 2), times = 3)"), "c(1, 2, 1, 2, 1, 2)");
  EXPECT_EQ(ev("sort(c(3, 1, 2))"), "c(1, 2, 3)");
  EXPECT_EQ(ev("sort(c(3, 1, 2), decreasing = TRUE)"), "c(3, 2, 1)");
  EXPECT_EQ(ev("rev(1:3)"), "c(3, 2, 1)");
  EXPECT_EQ(ev("head(1:10, 3)"), "c(1, 2, 3)");
  EXPECT_EQ(ev("tail(1:10, 2)"), "c(9, 10)");
}

TEST_F(RTest, WhichAnyAll) {
  EXPECT_EQ(ev("which(c(FALSE, TRUE, TRUE))"), "c(2, 3)");
  EXPECT_EQ(ev("which.max(c(1, 9, 3))"), "2");
  EXPECT_EQ(ev("any(c(1, 2) > 1)"), "TRUE");
  EXPECT_EQ(ev("all(c(1, 2) > 1)"), "FALSE");
  EXPECT_EQ(ev("ifelse(c(TRUE, FALSE), 1, 2)"), "c(1, 2)");
}

TEST_F(RTest, MathVectorized) {
  EXPECT_EQ(ev("sqrt(c(4, 9))"), "c(2, 3)");
  EXPECT_EQ(ev("abs(c(-1, 2))"), "c(1, 2)");
  EXPECT_EQ(ev("floor(2.9)"), "2");
  EXPECT_EQ(ev("ceiling(2.1)"), "3");
  EXPECT_EQ(ev("round(3.14159, digits = 2)"), "3.14");
  EXPECT_EQ(ev("round(2.7)"), "3");
}

TEST_F(RTest, Strings) {
  EXPECT_EQ(ev("nchar(\"hello\")"), "5");
  EXPECT_EQ(ev("toupper(\"abc\")"), "\"ABC\"");
  EXPECT_EQ(ev("paste(\"a\", \"b\")"), "\"a b\"");
  EXPECT_EQ(ev("paste0(\"x\", 1:3)"), "c(\"x1\", \"x2\", \"x3\")");
  EXPECT_EQ(ev("paste(c(\"a\", \"b\"), collapse = \"+\")"), "\"a+b\"");
  EXPECT_EQ(ev("sprintf(\"%.2f\", 3.14159)"), "\"3.14\"");
  EXPECT_EQ(ev("sprintf(\"%d items\", 7)"), "\"7 items\"");
  EXPECT_EQ(ev("substr(\"hello\", 2, 4)"), "\"ell\"");
  EXPECT_EQ(ev("strsplit(\"a,b\", \",\")[[1]]"), "c(\"a\", \"b\")");
  EXPECT_EQ(ev("toString(c(1, 2))"), "\"1, 2\"");
}

TEST_F(RTest, Coercions) {
  EXPECT_EQ(ev("as.numeric(\"42.5\")"), "42.5");
  EXPECT_EQ(ev("as.integer(3.9)"), "3");
  EXPECT_EQ(ev("as.character(c(1, 2))"), "c(\"1\", \"2\")");
  EXPECT_EQ(ev("as.logical(\"TRUE\")"), "TRUE");
  EXPECT_EQ(ev("as.numeric(TRUE)"), "1");
  EXPECT_THROW(ev("as.numeric(\"abc\")"), RError);
}

TEST_F(RTest, TypePredicates) {
  EXPECT_EQ(ev("is.numeric(1)"), "TRUE");
  EXPECT_EQ(ev("is.character(\"a\")"), "TRUE");
  EXPECT_EQ(ev("is.null(NULL)"), "TRUE");
  EXPECT_EQ(ev("is.list(list())"), "TRUE");
  EXPECT_EQ(ev("is.function(sum)"), "TRUE");
}

TEST_F(RTest, ApplyFamily) {
  EXPECT_EQ(ev("sapply(1:4, function(x) x * x)"), "c(1, 4, 9, 16)");
  EXPECT_EQ(ev("sapply(c(\"a\", \"b\"), toupper)"), "c(\"A\", \"B\")");
  EXPECT_EQ(ev("unlist(lapply(1:3, function(x) x + 10))"), "c(11, 12, 13)");
}

TEST_F(RTest, MapReduceDoCall) {
  EXPECT_EQ(ev("unlist(Map(function(a, b) a + b, 1:3, c(10, 20, 30)))"), "c(11, 22, 33)");
  EXPECT_EQ(ev("Reduce(function(a, b) a + b, 1:5)"), "15");
  EXPECT_EQ(ev("Reduce(function(a, b) a * b, 1:4, 10)"), "240");
  EXPECT_EQ(ev("do.call(paste, list(\"a\", \"b\", sep = \"-\"))"), "\"a-b\"");
  EXPECT_EQ(ev("do.call(sum, list(1, 2, 3))"), "6");
  EXPECT_THROW(ev("do.call(sum, 5)"), RError);
}

TEST_F(RTest, InOperatorAndAppend) {
  EXPECT_EQ(ev("2 %in% c(1, 2, 3)"), "TRUE");
  EXPECT_EQ(ev("c(1, 9) %in% c(1, 2, 3)"), "c(TRUE, FALSE)");
  EXPECT_EQ(ev("\"b\" %in% c(\"a\", \"b\")"), "TRUE");
  EXPECT_EQ(ev("append(c(1, 2), c(3, 4))"), "c(1, 2, 3, 4)");
  EXPECT_EQ(ev("append(c(\"x\"), \"y\")"), "c(\"x\", \"y\")");
}

TEST_F(RTest, CatAndPrint) {
  ev("cat(\"a\", \"b\", \"\\n\")");
  EXPECT_EQ(output, "a b \n");
  output.clear();
  ev("print(c(1, 2, 3))");
  EXPECT_EQ(output, "[1] 1 2 3\n");
  output.clear();
  ev("cat(1:3, sep = \"-\")");
  EXPECT_EQ(output, "1-2-3");
}

TEST_F(RTest, RandomDeterministic) {
  ev("set.seed(11)\na <- runif(3)");
  ev("set.seed(11)\nb <- runif(3)");
  EXPECT_EQ(ev("identical(a, b)"), "TRUE");
  EXPECT_EQ(ev("all(a >= 0 & a < 1)"), "TRUE");
  EXPECT_EQ(ev("length(rnorm(5))"), "5");
  EXPECT_EQ(ev("length(runif(2, min = 5, max = 6))"), "2");
  EXPECT_EQ(ev("all(runif(10, 5, 6) >= 5)"), "TRUE");
}

TEST_F(RTest, StopThrows) {
  EXPECT_THROW(ev("stop(\"custom failure\")"), RError);
  try {
    ev("stop(\"custom failure\")");
  } catch (const RError& e) {
    EXPECT_STREQ(e.what(), "custom failure");
  }
}

TEST_F(RTest, Errors) {
  EXPECT_THROW(ev("no_such_object"), RError);
  EXPECT_THROW(ev("1 +"), RError);
  EXPECT_THROW(ev("f <- 5\nf(1)"), RError);       // non-function application
  EXPECT_THROW(ev("c(1)[\"x\"]"), RError);
  EXPECT_THROW(ev("mean(character(0))"), RError);
  EXPECT_THROW(ev("if (NULL) 1"), RError);
  EXPECT_THROW(ev("sum(1) ("), RError);
}

// ---- embedding API ----

TEST_F(RTest, SwiftTEvalConvention) {
  EXPECT_EQ(ev2("x <- 21", "x * 2"), "42");
  EXPECT_EQ(ev2("v <- c(1, 2, 3)", "v"), "1,2,3");
  EXPECT_EQ(ev2("s <- \"plain string\"", "s"), "plain string");
}

TEST_F(RTest, StatePersistsUntilReset) {
  ev("counter <- 0");
  ev("counter <- counter + 1");
  EXPECT_EQ(ev("counter"), "1");
  in.reset();
  EXPECT_THROW(ev("counter"), RError);
  EXPECT_EQ(ev("sum(1:3)"), "6");  // base library reinstalled
}

TEST_F(RTest, SetAndGetGlobals) {
  in.set_global("injected", r_numeric({1, 2, 3}));
  EXPECT_EQ(ev("sum(injected)"), "6");
  ev("result <- injected * 2");
  RRef result = in.get_global("result");
  ASSERT_TRUE(result != nullptr);
  EXPECT_EQ(deparse(result), "c(2, 4, 6)");
  EXPECT_EQ(in.get_global("missing"), nullptr);
}

// ---- a realistic statistics fragment ----

TEST_F(RTest, StatsFragment) {
  const char* code =
      "analyze <- function(samples) {\n"
      "  list(n = length(samples), mu = mean(samples), sigma = sd(samples))\n"
      "}\n"
      "set.seed(99)\n"
      "data <- rnorm(500, mean = 10, sd = 2)\n"
      "res <- analyze(data)\n";
  ev(code);
  double mu = std::stod(ev2("", "res$mu"));
  double sigma = std::stod(ev2("", "res$sigma"));
  EXPECT_NEAR(mu, 10.0, 0.5);
  EXPECT_NEAR(sigma, 2.0, 0.5);
  EXPECT_EQ(ev2("", "res$n"), "500");
}

// A closure keeps the AST that defines it alive, not the latest eval's:
// one made by calling a function defined in eval 1 (from eval N) still
// runs after every other reference to eval 1's code is gone.
TEST_F(RTest, ClosuresOutliveTheirDefiningEval) {
  ev("make_adder <- function(k) function(x) x + k\n"
     "add3 <- make_adder(3)\n"
     "sq <- function(v, w = function(u) u * u) w(v)\n");
  for (int i = 0; i < 20; ++i) ev("junk <- c(1, 2, 3) * " + std::to_string(i));
  ev("add10 <- make_adder(10)");
  EXPECT_EQ(ev2("", "add3(4)"), "7");
  ev("make_adder <- NULL\nadd3 <- NULL");
  EXPECT_EQ(ev2("", "add10(1)"), "11");
  EXPECT_EQ(ev2("", "sq(5)"), "25");
}

}  // namespace
}  // namespace ilps::r
