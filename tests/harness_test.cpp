// Harness result-writing and CLI plumbing: an unwritable CATT_RESULTS_DIR
// must surface as a falsy WriteStatus that exit_status() maps to a nonzero
// process exit (benches fail CI instead of silently dropping CSVs), and
// the shared --sched= flag must parse into the policy seam's config.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "harness/harness.hpp"

namespace {

using namespace catt;

/// Scoped environment override (tests run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    had_old_ = std::getenv(name) != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(WriteResult, UnwritableResultsDirFailsWithNonzeroExit) {
  // /dev/null is a file, so creating a directory under it fails for any
  // user, root included.
  const ScopedEnv env("CATT_RESULTS_DIR", "/dev/null/catt_results");
  const bench::WriteStatus st = bench::write_result_file("x.csv", "a,b\n1,2\n");
  EXPECT_FALSE(st);
  EXPECT_FALSE(st.message.empty());
  EXPECT_EQ(st.path, "/dev/null/catt_results/x.csv");
  EXPECT_EQ(bench::exit_status(st), 1);
}

TEST(WriteResult, SuccessfulWriteIsTruthyAndExitsZero) {
  const std::string dir = ::testing::TempDir() + "catt_harness_test_results";
  const ScopedEnv env("CATT_RESULTS_DIR", dir.c_str());
  const std::string content = "h1,h2\nv1,v2\n";
  const bench::WriteStatus st = bench::write_result_file("ok.csv", content);
  ASSERT_TRUE(st) << st.message;
  EXPECT_EQ(bench::exit_status(st), 0);
  std::ifstream in(st.path, std::ios::binary);
  ASSERT_TRUE(in.good()) << st.path;
  std::string back((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(back, content);
}

TEST(SchedFromArgs, ParsesFlagEnvAndDefault) {
  {
    const ScopedEnv env("CATT_SCHED", "");
    char arg0[] = "bench";
    char* argv0[] = {arg0};
    EXPECT_EQ(bench::sched_from_args(1, argv0).kind, sim::sched::Kind::kNone);

    char arg1[] = "--sched=ccws:tags=4";
    char* argv1[] = {arg0, arg1};
    const sim::sched::PolicyConfig c = bench::sched_from_args(2, argv1);
    EXPECT_EQ(c.kind, sim::sched::Kind::kCcws);
    EXPECT_EQ(c.ccws_victim_tags, 4);
    EXPECT_TRUE(c.enabled());
  }
  {
    const ScopedEnv env("CATT_SCHED", "dyncta");
    char arg0[] = "bench";
    char* argv0[] = {arg0};
    EXPECT_EQ(bench::sched_from_args(1, argv0).kind, sim::sched::Kind::kDyncta);
  }
}

}  // namespace
// Appended: the reusable spec-parser layer behind --sched= and --cache=,
// and the cache flag's full grammar (spec, env fallback, exit-2 on a bad
// spec — matching --sched= semantics).
#include "common/error.hpp"
#include "harness/spec.hpp"

namespace {

TEST(SpecParser, DecomposesNameAndKnobs) {
  const harness::SpecParser p = harness::SpecParser::parse("dir:path=/tmp/c,max_mb=64");
  EXPECT_EQ(p.name(), "dir");
  EXPECT_EQ(p.spec(), "dir:path=/tmp/c,max_mb=64");
  EXPECT_TRUE(p.has("path"));
  EXPECT_EQ(p.str_or("path", ""), "/tmp/c");
  EXPECT_EQ(p.int_or("max_mb", 0), 64);
  EXPECT_EQ(p.str_or("absent", "fallback"), "fallback");
  p.reject_unknown_keys();  // every key consumed

  const harness::SpecParser bare = harness::SpecParser::parse("none");
  EXPECT_EQ(bare.name(), "none");
  bare.reject_unknown_keys();
}

TEST(SpecParser, RejectsMalformedSpecsAndStrayKeys) {
  EXPECT_THROW(harness::SpecParser::parse(""), Error);
  EXPECT_THROW(harness::SpecParser::parse(":k=v"), Error);          // empty name
  EXPECT_THROW(harness::SpecParser::parse("dir:novalue"), Error);   // knob without '='
  EXPECT_THROW(harness::SpecParser::parse("dir:=v"), Error);        // empty key
  EXPECT_THROW(harness::SpecParser::parse("dir:k=1,k=2"), Error);   // duplicate key

  const harness::SpecParser typo = harness::SpecParser::parse("dir:path=x,evcit=lru");
  (void)typo.str_or("path", "");
  EXPECT_THROW(typo.reject_unknown_keys(), Error);  // "evcit" never consumed

  const harness::SpecParser p = harness::SpecParser::parse("dir:max_mb=-3,evict=fifo");
  EXPECT_THROW((void)p.int_or("max_mb", 0), Error);  // positive integers only
  EXPECT_THROW((void)p.enum_or("evict", {"lru", "none"}, "lru"), Error);

  // Above the caller's bound (an int field here) or past int64: rejected,
  // never wrapped or saturated.
  const harness::SpecParser big =
      harness::SpecParser::parse("fixed:n=4294967296,tb=99999999999999999999");
  EXPECT_THROW((void)big.int_or("n", 1, 2147483647), Error);
  EXPECT_THROW((void)big.int_or("tb", 0), Error);
  EXPECT_EQ(harness::SpecParser::parse("fixed:n=2147483647").int_or("n", 1, 2147483647),
            2147483647);
}

TEST(FlagOrEnv, LastFlagWinsThenEnvThenEmpty) {
  const ScopedEnv env("CATT_TEST_SPEC", "from_env");
  char arg0[] = "bench";
  char arg1[] = "--spec=first";
  char arg2[] = "--spec=second";
  char* argv_two[] = {arg0, arg1, arg2};
  EXPECT_EQ(harness::flag_or_env(3, argv_two, "spec", "CATT_TEST_SPEC"), "second");
  char* argv_none[] = {arg0};
  EXPECT_EQ(harness::flag_or_env(1, argv_none, "spec", "CATT_TEST_SPEC"), "from_env");
  EXPECT_EQ(harness::flag_or_env(1, argv_none, "spec", nullptr), "");
}

TEST(CacheFromArgs, ParsesSpecEnvFallbackAndNone) {
  const std::string dir = ::testing::TempDir() + "catt_harness_cache_flag";
  {
    const ScopedEnv env("CATT_CACHE_DIR", "");
    char arg0[] = "bench";
    char* argv0[] = {arg0};
    EXPECT_EQ(bench::cache_from_args(1, argv0), nullptr);  // no flag, no env

    const std::string flag = "--cache=dir:path=" + dir + ",evict=none,max_mb=8";
    std::string flag_copy = flag;
    char* argv1[] = {arg0, flag_copy.data()};
    const auto cache = bench::cache_from_args(2, argv1);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->config().dir, dir);
    EXPECT_EQ(cache->config().evict, exec::DiskCacheConfig::Evict::kNone);
    EXPECT_EQ(cache->config().max_bytes, 8u * 1024 * 1024);

    char off[] = "--cache=none";
    char* argv2[] = {arg0, off};
    EXPECT_EQ(bench::cache_from_args(2, argv2), nullptr);
  }
  {
    // $CATT_CACHE_DIR is the plain-directory shorthand for the spec.
    const ScopedEnv env("CATT_CACHE_DIR", dir.c_str());
    char arg0[] = "bench";
    char* argv0[] = {arg0};
    const auto cache = bench::cache_from_args(1, argv0);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->config().dir, dir);
    EXPECT_EQ(cache->config().evict, exec::DiskCacheConfig::Evict::kLru);
  }
}

TEST(CacheFromArgsDeathTest, BadSpecExitsTwo) {
  const ScopedEnv env("CATT_CACHE_DIR", "");
  char arg0[] = "bench";
  char bad_name[] = "--cache=ramdisk:path=/tmp/x";
  char* argv_name[] = {arg0, bad_name};
  EXPECT_EXIT((void)bench::cache_from_args(2, argv_name), ::testing::ExitedWithCode(2),
              "bad spec");
  char no_path[] = "--cache=dir:evict=lru";
  char* argv_path[] = {arg0, no_path};
  EXPECT_EXIT((void)bench::cache_from_args(2, argv_path), ::testing::ExitedWithCode(2),
              "bad spec");
  char typo[] = "--cache=dir:path=/tmp/x,evcit=lru";
  char* argv_typo[] = {arg0, typo};
  EXPECT_EXIT((void)bench::cache_from_args(2, argv_typo), ::testing::ExitedWithCode(2),
              "bad spec");
  // max_mb * 2^20 must not wrap to a small (or zero = unbounded) budget,
  // and strtoll's ERANGE saturation must not pass as a value.
  char wraps[] = "--cache=dir:path=/tmp/x,max_mb=17592186044416";
  char* argv_wraps[] = {arg0, wraps};
  EXPECT_EXIT((void)bench::cache_from_args(2, argv_wraps), ::testing::ExitedWithCode(2),
              "max_mb");
  char saturates[] = "--cache=dir:path=/tmp/x,max_mb=99999999999999999999999";
  char* argv_saturates[] = {arg0, saturates};
  EXPECT_EXIT((void)bench::cache_from_args(2, argv_saturates), ::testing::ExitedWithCode(2),
              "max_mb");
}

}  // namespace
