#include "common/json.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"

namespace metascope {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  const Json v = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  EXPECT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").is_null());
}

TEST(Json, ParseStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    Json::parse("{\n  \"a\": ]\n}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse("{} x"), Error);
}

TEST(Json, RejectsUnterminated) {
  EXPECT_THROW(Json::parse("{\"a\": 1"), Error);
  EXPECT_THROW(Json::parse("[1, 2"), Error);
  EXPECT_THROW(Json::parse("\"abc"), Error);
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse("42");
  EXPECT_THROW((void)v.as_string(), Error);
  EXPECT_THROW((void)v.as_array(), Error);
  EXPECT_THROW((void)v.at("k"), Error);
}

TEST(Json, MissingKeyThrows) {
  const Json v = Json::parse("{}");
  EXPECT_THROW((void)v.at("nope"), Error);
}

TEST(Json, Defaults) {
  const Json v = Json::parse(R"({"n": 3, "s": "x", "b": true})");
  EXPECT_DOUBLE_EQ(v.number_or("n", 9.0), 3.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
  EXPECT_EQ(v.bool_or("b", false), true);
  EXPECT_EQ(v.bool_or("missing", false), false);
  EXPECT_EQ(v.int_or("n", 0), 3);
}

TEST(Json, BuildersAndDump) {
  Json v;
  v.set("name", "exp1").set("ranks", 32);
  Json arr;
  arr.push_back(1).push_back(2);
  v.set("list", arr);
  const std::string compact = v.dump();
  EXPECT_EQ(compact, R"({"list":[1,2],"name":"exp1","ranks":32})");
}

TEST(Json, RoundTripThroughDump) {
  const std::string src =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":-3},"empty_a":[],"empty_o":{}})";
  const Json v = Json::parse(src);
  const Json again = Json::parse(v.dump());
  EXPECT_TRUE(v == again);
  const Json pretty = Json::parse(v.dump(2));
  EXPECT_TRUE(v == pretty);
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json v(std::string("a\x01" "b"));
  EXPECT_EQ(v.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(v.dump()).as_string(), std::string("a\x01" "b"));
}

TEST(Json, IntegerFormattingHasNoDecimalPoint) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-1).dump(), "-1");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_json_test.json")
          .string();
  Json v;
  v.set("x", 1.5);
  save_json_file(path, v);
  const Json loaded = load_json_file(path);
  EXPECT_TRUE(v == loaded);
  std::filesystem::remove(path);
}

TEST(Json, MissingFileThrows) {
  EXPECT_THROW(load_json_file("/nonexistent/dir/x.json"), Error);
}

TEST(Json, SaveCreatesMissingParentDirectories) {
  const auto root = std::filesystem::temp_directory_path() /
                    "msc_json_mkdir_test";
  std::filesystem::remove_all(root);
  const std::string path = (root / "a" / "b" / "out.json").string();
  Json v;
  v.set("x", 1);
  save_json_file(path, v);
  EXPECT_TRUE(load_json_file(path) == v);
  std::filesystem::remove_all(root);
}

TEST(Json, UnwritablePathThrowsWithPathAndReason) {
  // /proc/version exists and is not a directory, so nothing under it
  // can be created or opened for writing.
  const std::string path = "/proc/version/x/out.json";
  try {
    save_json_file(path, Json{Json::Object{}});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find('('), std::string::npos)
        << "missing OS reason: " << what;
  }
  EXPECT_THROW(ensure_writable_file(path), Error);
}

TEST(Json, EnsureWritableLeavesExistingContentsAlone) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "msc_json_keep.json")
          .string();
  Json v;
  v.set("keep", true);
  save_json_file(path, v);
  ensure_writable_file(path);  // append-mode probe: must not truncate
  EXPECT_TRUE(load_json_file(path) == v);
  std::filesystem::remove(path);
}

TEST(Json, SaveToFullDeviceFailsWithIo) {
  // A manifest-sized document is buffered whole; the full disk only
  // shows at the flush on close, which must not be lost.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Json v{Json::Object{}};
  v.set("experiment", "full");
  try {
    save_json_file("/dev/full", v);
    FAIL() << "save_json_file to /dev/full succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Io) << e.what();
    EXPECT_EQ(e.context().path, "/dev/full");
  }
}

}  // namespace
}  // namespace metascope
