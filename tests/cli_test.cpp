#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace aquamac {
namespace {

CliParser make_parser() {
  return CliParser{"tool",
                   {
                       {"mac", "EW-MAC", "protocol"},
                       {"nodes", "60", "node count"},
                       {"load", "0.5", "offered load"},
                       {"verbose", "false", "debug"},
                       {"trace", "", "trace path"},
                   }};
}

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = make_parser();
  const auto argv = argv_of({});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get("mac"), "EW-MAC");
  EXPECT_EQ(cli.get_int("nodes"), 60);
  EXPECT_DOUBLE_EQ(cli.get_double("load"), 0.5);
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.has("trace")) << "empty default means 'not provided'";
}

TEST(Cli, EqualsAndSpaceSyntax) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--mac=S-FAMA", "--nodes", "120", "--load=0.8"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get("mac"), "S-FAMA");
  EXPECT_EQ(cli.get_int("nodes"), 120);
  EXPECT_DOUBLE_EQ(cli.get_double("load"), 0.8);
}

TEST(Cli, BooleanSwitch) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--verbose"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, GivenOnlyForFlagsOnArgv) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--nodes=60", "--verbose"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.given("nodes")) << "given even when equal to the default";
  EXPECT_TRUE(cli.given("verbose"));
  EXPECT_FALSE(cli.given("mac")) << "a default is not given";
  EXPECT_EQ(cli.get("mac"), "EW-MAC");
  EXPECT_THROW((void)cli.given("bogus"), std::invalid_argument);
}

TEST(Cli, HelpShortCircuits) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--help"});
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.help_text().find("--mac"), std::string::npos);
  EXPECT_NE(cli.help_text().find("default: EW-MAC"), std::string::npos);
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--bogus=1"});
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()), std::invalid_argument);
}

TEST(Cli, MalformedNumbersThrow) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--nodes=sixty"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_int("nodes"), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("nodes"), std::invalid_argument);
}

TEST(Cli, MalformedBoolThrows) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"--verbose=maybe"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_bool("verbose"), std::invalid_argument);
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli = make_parser();
  const auto argv = argv_of({"scenario.json", "--nodes=10", "extra"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"scenario.json", "extra"}));
}

TEST(Cli, BoolAcceptsCommonSpellings) {
  for (const char* spelling : {"true", "1", "yes", "on"}) {
    CliParser cli = make_parser();
    const std::string arg = std::string("--verbose=") + spelling;
    const auto argv = argv_of({arg.c_str()});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(cli.get_bool("verbose")) << spelling;
  }
  for (const char* spelling : {"false", "0", "no", "off"}) {
    CliParser cli = make_parser();
    const std::string arg = std::string("--verbose=") + spelling;
    const auto argv = argv_of({arg.c_str()});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(cli.get_bool("verbose")) << spelling;
  }
}

}  // namespace
}  // namespace aquamac
