// Pins the bytes of the one JSON layout every bench file uses (two-space
// indent, one member per line), the string escapes, and Counters()' walk of
// a named counter table.

#include "src/base/json_writer.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace elsc {
namespace {

struct Trio {
  uint64_t sent = 0;
  uint64_t lost = 0;
  uint64_t kept = 0;
};

// Deliberately not declaration order: the table decides the order.
constexpr Counter<Trio> kTrioCounters[] = {
    ELSC_COUNTER(Trio, kept),
    ELSC_COUNTER(Trio, sent),
    ELSC_COUNTER(Trio, lost),
};

TEST(JsonWriterTest, PinsLayoutValuesAndEscapes) {
  JsonWriter json;
  json.Field("max", UINT64_MAX).Field("neg", int64_t{-42}).Field("ok", true);
  json.Object("nested").Fixed("ratio", 2.0 / 3.0, 4).HexFloat("exact", 0.75).End();
  json.Object("empty").End();
  json.Array("cells");
  json.Object().Field("id", 1).End();
  json.Object().Field("id", 2).Field("text", "a\"b\\c\nd\x01").End();
  json.End();
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"max\": 18446744073709551615,\n"
            "  \"neg\": -42,\n"
            "  \"ok\": true,\n"
            "  \"nested\": {\n"
            "    \"ratio\": 0.6667,\n"
            "    \"exact\": \"0x1.8p-1\"\n"
            "  },\n"
            "  \"empty\": {},\n"
            "  \"cells\": [\n"
            "    {\n"
            "      \"id\": 1\n"
            "    },\n"
            "    {\n"
            "      \"id\": 2,\n"
            "      \"text\": \"a\\\"b\\\\c\\nd\\u0001\"\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, CountersWalkTheTableUnderFieldNames) {
  Trio trio;
  trio.sent = 5;
  trio.lost = 2;
  trio.kept = 3;
  JsonWriter json;
  json.Counters("trio", trio, kTrioCounters);
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"trio\": {\n"
            "    \"kept\": 3,\n"
            "    \"sent\": 5,\n"
            "    \"lost\": 2\n"
            "  }\n"
            "}\n");
}

}  // namespace
}  // namespace elsc
