/**
 * @file
 * Unit tests for the utility layer: RNG determinism and distribution
 * moments, running statistics, histograms, CSV round-trips, and table
 * formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/crc32.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace react {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeMoments)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.uniform(2.0, 6.0));
    EXPECT_NEAR(stats.mean(), 4.0, 0.05);
    EXPECT_GE(stats.min(), 2.0);
    EXPECT_LT(stats.max(), 6.0);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMean)
{
    Rng rng(17);
    const double mu = -0.5, sigma = 1.0;
    RunningStats stats;
    for (int i = 0; i < 300000; ++i)
        stats.add(rng.lognormal(mu, sigma));
    // E[X] = exp(mu + sigma^2 / 2) = exp(0) = 1.
    EXPECT_NEAR(stats.mean(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(19);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.exponential(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
    EXPECT_NEAR(stats.cv(), 1.0, 0.03);
}

TEST(Rng, PoissonSmallMean)
{
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(static_cast<double>(rng.poisson(2.5)));
    EXPECT_NEAR(stats.mean(), 2.5, 0.05);
    EXPECT_NEAR(stats.variance(), 2.5, 0.1);
}

TEST(Rng, PoissonLargeMean)
{
    Rng rng(29);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(static_cast<double>(rng.poisson(100.0)));
    EXPECT_NEAR(stats.mean(), 100.0, 0.5);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng parent(31);
    Rng child = parent.split();
    RunningStats corr;
    for (int i = 0; i < 1000; ++i) {
        const double a = parent.uniform() - 0.5;
        const double b = child.uniform() - 0.5;
        corr.add(a * b);
    }
    EXPECT_NEAR(corr.mean(), 0.0, 0.01);
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.4);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, WeightedMatchesRepeated)
{
    RunningStats weighted, repeated;
    weighted.addWeighted(3.0, 4.0);
    weighted.addWeighted(7.0, 2.0);
    for (int i = 0; i < 4; ++i)
        repeated.add(3.0);
    for (int i = 0; i < 2; ++i)
        repeated.add(7.0);
    EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
    EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-12);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.cv(), 0.0);
}

TEST(Histogram, BinningAndFractions)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.total(), 10u);
    for (int b = 0; b < 10; ++b)
        EXPECT_EQ(h.binCount(b), 1u);
    EXPECT_NEAR(h.fractionAbove(5.0), 0.5, 1e-12);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(99.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
}

TEST(Csv, RoundTripWithHeader)
{
    CsvTable table;
    table.header = {"a", "b"};
    table.rows = {{1.0, 2.5}, {3.0, -4.25}};
    const CsvTable parsed = parseCsv(writeCsv(table));
    ASSERT_EQ(parsed.header.size(), 2u);
    EXPECT_EQ(parsed.columnIndex("b"), 1);
    ASSERT_EQ(parsed.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.rows[1][1], -4.25);
}

TEST(Csv, SkipsComments)
{
    const CsvTable parsed = parseCsv("# comment\n1,2\n\n3,4\n");
    ASSERT_EQ(parsed.rows.size(), 2u);
    EXPECT_TRUE(parsed.header.empty());
    EXPECT_DOUBLE_EQ(parsed.rows[1][0], 3.0);
}

TEST(Csv, FileRoundTrip)
{
    CsvTable table;
    table.header = {"t", "p"};
    table.rows = {{0.0, 1.5}, {0.1, 2.5}};
    const std::string path = ::testing::TempDir() + "react_csv_test.csv";
    writeCsvFile(path, table);
    const CsvTable back = readCsvFile(path);
    ASSERT_EQ(back.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(back.rows[1][1], 2.5);
    EXPECT_EQ(back.columnIndex("p"), 1);
    std::remove(path.c_str());
}

TEST(Csv, MissingColumnIsMinusOne)
{
    const CsvTable parsed = parseCsv("x,y\n1,2\n");
    EXPECT_EQ(parsed.columnIndex("z"), -1);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t("Title");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::integer(42), "42");
    EXPECT_EQ(TextTable::percent(0.256, 1), "25.6%");
}

TEST(Units, Helpers)
{
    using namespace units;
    EXPECT_DOUBLE_EQ(microfarads(770.0).raw(), 770e-6);
    EXPECT_DOUBLE_EQ(milliwatts(2.12).raw(), 2.12e-3);
    EXPECT_DOUBLE_EQ(capEnergy(Farads(1e-3), Volts(2.0)).raw(), 2e-3);
    EXPECT_DOUBLE_EQ(
        capEnergyWindow(Farads(1e-3), Volts(3.0), Volts(1.0)).raw(), 4e-3);
    EXPECT_DOUBLE_EQ(hours(2.0).raw(), 7200.0);
}

TEST(Units, CapEnergyWindowSignedContract)
{
    using namespace units;
    // The window is signed: moving *up* in voltage (v_low > v_high)
    // yields the negative of the discharge window -- the energy that
    // must be supplied, not extracted.  Callers wanting an extractable
    // amount must order (or clamp) the arguments themselves.
    const Joules discharge =
        capEnergyWindow(Farads(1e-3), Volts(3.0), Volts(1.0));
    const Joules charge =
        capEnergyWindow(Farads(1e-3), Volts(1.0), Volts(3.0));
    EXPECT_DOUBLE_EQ(charge.raw(), -discharge.raw());
    EXPECT_LT(charge.raw(), 0.0);
    // Degenerate window: no voltage swing, no energy either way.
    EXPECT_DOUBLE_EQ(
        capEnergyWindow(Farads(1e-3), Volts(2.0), Volts(2.0)).raw(), 0.0);
}

TEST(Crc32, MatchesTheIeeeCheckVector)
{
    // The canonical IEEE 802.3 check value: crc32("123456789").
    const uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc32(msg, sizeof(msg)), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, IncrementalEqualsOneShot)
{
    const uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    Crc32 inc;
    for (size_t split = 0; split <= sizeof(msg); ++split) {
        inc.reset();
        inc.update(msg, split);
        inc.update(msg + split, sizeof(msg) - split);
        EXPECT_EQ(inc.value(), 0xCBF43926u) << "split at " << split;
    }
    // value() must not consume state: calling it twice is idempotent.
    EXPECT_EQ(inc.value(), inc.value());
}

TEST(Csv, TryParseReportsLineAndFieldWithoutAborting)
{
    CsvTable table;
    std::string error;
    EXPECT_TRUE(tryParseCsv("t,p\n0,1\n0.5,2\n", &table, &error));
    ASSERT_EQ(table.rows.size(), 2u);
    // Line numbers of each data row survive for later diagnostics.
    ASSERT_EQ(table.rowLines.size(), 2u);
    EXPECT_EQ(table.rowLines[0], 2u);
    EXPECT_EQ(table.rowLines[1], 3u);

    EXPECT_FALSE(tryParseCsv("t,p\n0,oops\n", &table, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
    EXPECT_NE(error.find("oops"), std::string::npos);
}

TEST(Json, FiniteDoublesRoundTripExactly)
{
    JsonWriter w;
    w.beginObject();
    w.field("x", 0.1);
    w.field("y", -1.5e300);
    w.endObject();
    EXPECT_NE(w.str().find("0.1"), std::string::npos);
    EXPECT_NE(w.str().find("e+300"), std::string::npos);
}

TEST(Json, NonFiniteDoublesEmitNullNotBareTokens)
{
    // printf("%.17g", nan) yields "nan", which is not JSON; a consumer
    // like python's json.loads would reject the whole artifact.  The
    // writer substitutes null (and warns) instead.
    JsonWriter w;
    w.beginObject();
    w.field("a", std::nan(""));
    w.field("b", std::numeric_limits<double>::infinity());
    w.field("c", -std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_EQ(w.str().find("nan"), std::string::npos) << w.str();
    EXPECT_EQ(w.str().find("inf"), std::string::npos) << w.str();
    size_t nulls = 0;
    for (size_t at = w.str().find("null"); at != std::string::npos;
         at = w.str().find("null", at + 1))
        ++nulls;
    EXPECT_EQ(nulls, 3u);
}

// ---------------------------------------------------------------------
// env: the one contract every environment knob shares (see util/env.hh).
// setenv/unsetenv are process-global, so each test uses its own unique
// variable name and cleans up after itself.

class EnvVar
{
  public:
    EnvVar(const char *name_in, const char *value) : name(name_in)
    {
        ::setenv(name, value, 1);
    }
    ~EnvVar() { ::unsetenv(name); }

  private:
    const char *name;
};

TEST(Env, UnsetIsSilentlyAbsent)
{
    ::unsetenv("REACT_TEST_UNSET");
    EXPECT_FALSE(env::raw("REACT_TEST_UNSET").has_value());
    EXPECT_FALSE(env::intVar("REACT_TEST_UNSET", 0, 10).has_value());
    EXPECT_FALSE(env::u64Var("REACT_TEST_UNSET", 0, 10).has_value());
    EXPECT_FALSE(env::stringVar("REACT_TEST_UNSET").has_value());
}

TEST(Env, WellFormedValuesParse)
{
    EnvVar a("REACT_TEST_INT", "42");
    EnvVar b("REACT_TEST_STR", "hello");
    EXPECT_EQ(env::intVar("REACT_TEST_INT", 0, 100).value_or(-1), 42);
    EXPECT_EQ(env::u64Var("REACT_TEST_INT", 0, 100).value_or(0), 42u);
    EXPECT_EQ(env::stringVar("REACT_TEST_STR").value_or(""), "hello");
}

TEST(Env, MalformedValuesWarnAndFallBack)
{
    EnvVar a("REACT_TEST_INT", "12abc"); // trailing garbage
    EnvVar b("REACT_TEST_WORD", "fast");  // not a number
    EXPECT_FALSE(env::intVar("REACT_TEST_INT", 0, 100).has_value());
    EXPECT_FALSE(env::u64Var("REACT_TEST_INT", 0, 100).has_value());
    EXPECT_FALSE(env::intVar("REACT_TEST_WORD", 0, 100).has_value());
    EXPECT_FALSE(env::u64Var("REACT_TEST_WORD", 0, 100).has_value());
}

TEST(Env, OutOfRangeAndOverflowAreMalformed)
{
    EnvVar a("REACT_TEST_INT", "500");
    EnvVar b("REACT_TEST_BIG", "99999999999999999999999999");
    EnvVar c("REACT_TEST_NEG", "-3");
    EXPECT_FALSE(env::intVar("REACT_TEST_INT", 0, 100).has_value());
    EXPECT_FALSE(
        env::intVar("REACT_TEST_BIG", 0, (1ll << 62)).has_value());
    EXPECT_FALSE(env::u64Var("REACT_TEST_BIG", 0, UINT64_MAX).has_value());
    // A negative value must not wrap through the unsigned parser.
    EXPECT_FALSE(env::u64Var("REACT_TEST_NEG", 0, UINT64_MAX).has_value());
    EXPECT_EQ(env::intVar("REACT_TEST_NEG", -10, 10).value_or(0), -3);
}

TEST(Env, EmptyStringIsUnsetNotWarned)
{
    EnvVar a("REACT_TEST_STR", "");
    EXPECT_FALSE(env::stringVar("REACT_TEST_STR").has_value());
}

} // namespace
} // namespace react
