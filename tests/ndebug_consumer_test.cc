// A consumer of the service built with assertions on (-UNDEBUG, see
// tests/CMakeLists.txt) and linked against libraries built with whatever
// NDEBUG the build type sets. The service classes hold fc::Mutex members,
// so this only works while Mutex has one layout in every build: the
// consumer constructs the CoresetService with its own view of the layout
// and the library's code then reads and writes the same object.

#include <string>

#include <gtest/gtest.h>

#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace {

#ifdef NDEBUG
#error "ndebug_consumer_test must be compiled without NDEBUG"
#endif

service::JsonValue Handle(service::CoresetService& svc,
                          const std::string& line) {
  auto parsed = service::ParseJson(service::HandleRequestLine(svc, line));
  EXPECT_TRUE(parsed.ok());
  return parsed.ok() ? std::move(parsed.value()) : service::JsonValue();
}

TEST(NdebugConsumerTest, RegisterAndBuildThroughHandleRequestLine) {
  service::CoresetService svc;
  const service::JsonValue registered = Handle(
      svc, R"({"verb":"register","name":"p","points":)"
           R"([[0,0],[1,0],[0,1],[9,9],[9,8],[8,9],[5,5],[5,6]]})");
  ASSERT_NE(registered.Find("ok"), nullptr);
  EXPECT_TRUE(registered.Find("ok")->bool_value());

  const std::string build =
      R"({"verb":"build","dataset":"p","method":"uniform","k":2,"m":4,)"
      R"("seed":5,"shards":2})";
  const service::JsonValue first = Handle(svc, build);
  ASSERT_NE(first.Find("ok"), nullptr);
  EXPECT_TRUE(first.Find("ok")->bool_value());
  EXPECT_EQ(first.Find("cache")->string_value(), "miss");
  EXPECT_EQ(Handle(svc, build).Find("cache")->string_value(), "hit");
}

}  // namespace
}  // namespace fastcoreset
