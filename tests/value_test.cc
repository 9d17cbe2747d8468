#include "src/common/value.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/apps/app_util.h"
#include "src/multivalue/multivalue.h"

namespace karousos {
namespace {

// Lists and maps live behind a shared pointer, so a Value is no larger than
// its widest inline alternative (std::string) plus the variant tag.
static_assert(sizeof(Value) <= 40);

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(MakeList({1, 2}).is_list());
  EXPECT_TRUE(MakeMap({{"a", 1}}).is_map());
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(false).Truthy());
  EXPECT_FALSE(Value(0).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_FALSE(Value(ValueList{}).Truthy());
  EXPECT_FALSE(Value(ValueMap{}).Truthy());
  EXPECT_TRUE(Value(true).Truthy());
  EXPECT_TRUE(Value(-1).Truthy());
  EXPECT_TRUE(Value("x").Truthy());
  EXPECT_TRUE(MakeList({Value()}).Truthy());
}

TEST(ValueTest, FieldAccess) {
  Value m = MakeMap({{"a", 1}, {"b", "two"}});
  EXPECT_EQ(m.Field("a"), Value(1));
  EXPECT_EQ(m.Field("b"), Value("two"));
  EXPECT_TRUE(m.Field("missing").is_null());
  EXPECT_TRUE(Value(3).Field("a").is_null());
  EXPECT_TRUE(m.HasField("a"));
  EXPECT_FALSE(m.HasField("c"));
}

TEST(ValueTest, EqualityIsStructural) {
  EXPECT_EQ(MakeMap({{"a", MakeList({1, "x"})}}), MakeMap({{"a", MakeList({1, "x"})}}));
  EXPECT_NE(MakeMap({{"a", 1}}), MakeMap({{"a", 2}}));
  EXPECT_NE(Value(1), Value(1.0));  // Int and double are distinct kinds.
  EXPECT_NE(Value(0), Value(false));
}

TEST(ValueTest, DigestDistinguishesStructure) {
  EXPECT_NE(Value("ab").DigestValue(), MakeList({"a", "b"}).DigestValue());
  EXPECT_NE(MakeList({1, 2}).DigestValue(), MakeList({2, 1}).DigestValue());
  EXPECT_EQ(MakeMap({{"a", 1}, {"b", 2}}).DigestValue(),
            MakeMap({{"b", 2}, {"a", 1}}).DigestValue());  // Map order canonical.
  EXPECT_NE(Value().DigestValue(), Value(0).DigestValue());
}

TEST(ValueTest, ToStringRendersJson) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(MakeList({1, "a"}).ToString(), "[1,\"a\"]");
  EXPECT_EQ(MakeMap({{"k", MakeList({})}}).ToString(), "{\"k\":[]}");
  EXPECT_EQ(Value("quote\"back\\slash").ToString(), "\"quote\\\"back\\\\slash\"");
}

TEST(ValueTest, OrderingIsTotalAndConsistent) {
  std::vector<Value> values = {Value(), Value(false), Value(true), Value(-5),
                               Value(3), Value("a"),  Value("b"),  MakeList({1})};
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_FALSE(values[i] < values[i]);
    for (size_t j = i + 1; j < values.size(); ++j) {
      EXPECT_TRUE(values[i] < values[j]);
      EXPECT_FALSE(values[j] < values[i]);
    }
  }
}

// Builds the same nested value twice without any sharing between the two:
// every list and map node is freshly allocated.
Value DeepBuilt() {
  return MakeMap({{"items", MakeList({MakeMap({{"digest", "d1"}, {"count", 2}}),
                                      MakeMap({{"digest", "d2"}, {"count", -3}}), 1.25})},
                  {"empty", MakeList({})},
                  {"flag", true}});
}

TEST(ValueSharingTest, CopyAliasesSourceNode) {
  Value list = MakeList({1, "a", MakeMap({{"k", 2}})});
  Value list_copy = list;
  EXPECT_EQ(&list_copy.AsList(), &list.AsList());
  EXPECT_EQ(&list_copy.AsList()[2].AsMap(), &list.AsList()[2].AsMap());

  Value map = MakeMap({{"k", MakeList({1})}});
  Value map_copy;
  map_copy = map;
  EXPECT_EQ(&map_copy.AsMap(), &map.AsMap());

  // A moved-from copy releases only its own reference.
  Value moved = std::move(list_copy);
  EXPECT_EQ(&moved.AsList(), &list.AsList());
  EXPECT_EQ(list.AsList().size(), 3u);

  // Independently built equal values are equal but do not alias.
  Value again = MakeList({1, "a", MakeMap({{"k", 2}})});
  EXPECT_NE(&again.AsList(), &list.AsList());
  EXPECT_EQ(again, list);
}

TEST(ValueSharingTest, MultivalueEditsLeaveTheirSourceUnchanged) {
  const Value list = MakeList({1, 2});
  const Value map = MakeMap({{"a", 1}, {"b", 2}});
  const Value list_before = MakeList({1, 2});
  const Value map_before = MakeMap({{"a", 1}, {"b", 2}});
  const ValueList* list_node = &list.AsList();
  const ValueMap* map_node = &map.AsMap();

  MultiValue appended = MvListAppend(MultiValue(list), MultiValue(3));
  MultiValue set = MvMapSet(MultiValue(map), MultiValue("a"), MultiValue(9));
  MultiValue added = MvMapSet(MultiValue(map), MultiValue("c"), MultiValue(3));
  MultiValue erased = MvMapErase(MultiValue(map), MultiValue("b"));

  EXPECT_EQ(appended.CollapsedValue(), MakeList({1, 2, 3}));
  EXPECT_EQ(set.CollapsedValue(), MakeMap({{"a", 9}, {"b", 2}}));
  EXPECT_EQ(added.CollapsedValue(), MakeMap({{"a", 1}, {"b", 2}, {"c", 3}}));
  EXPECT_EQ(erased.CollapsedValue(), MakeMap({{"a", 1}}));

  EXPECT_EQ(list, list_before);
  EXPECT_EQ(map, map_before);
  EXPECT_EQ(&list.AsList(), list_node);
  EXPECT_EQ(&map.AsMap(), map_node);
  EXPECT_EQ(list_node->size(), 2u);
  EXPECT_EQ(map_node->size(), 2u);
}

TEST(ValueSharingTest, SharedAndDeepBuiltValuesAgreeEverywhere) {
  const Value deep = DeepBuilt();
  // The shared value reuses one element node in two places and aliases a
  // whole subtree of another value.
  const Value entry = MakeMap({{"digest", "d1"}, {"count", 2}});
  const Value donor = DeepBuilt();
  const Value shared = MakeMap(
      {{"items", MakeList({entry, donor.Field("items").AsList()[1], 1.25})},
       {"empty", donor.Field("empty")},
       {"flag", true}});
  EXPECT_EQ(&shared.Field("empty").AsList(), &donor.Field("empty").AsList());

  EXPECT_TRUE(shared == deep);
  EXPECT_TRUE(deep == shared);
  EXPECT_FALSE(shared != deep);
  EXPECT_FALSE(shared < deep);
  EXPECT_FALSE(deep < shared);
  EXPECT_EQ(shared.DigestValue(), deep.DigestValue());
  EXPECT_EQ(shared.ToString(), deep.ToString());

  // Ordering against a different value is the same from either side.
  const Value bigger = MakeMap({{"items", MakeList({})}, {"z", 1}});
  EXPECT_EQ(shared < bigger, deep < bigger);
  EXPECT_EQ(bigger < shared, bigger < deep);
  EXPECT_NE(shared, bigger);

  // A value compares equal to itself through the node-identity shortcut and
  // through the structural walk alike.
  const Value self = shared;
  EXPECT_EQ(self, shared);
  EXPECT_EQ(self.DigestValue(), shared.DigestValue());
}

// Four threads copy and drop one shared node concurrently. The refcount is
// the only state they share; under ThreadSanitizer (the `tsan` label) this
// is the race check for cross-thread value sharing in the parallel audit.
TEST(ValueSharingTest, ConcurrentCopiesAndReleasesOfOneNode) {
  Value shared = MakeMap({{"items", MakeList({1, "two", MakeMap({{"k", 3.0}})})}});
  const uint64_t digest = shared.DigestValue();
  const ValueMap* node = &shared.AsMap();
  std::vector<std::thread> threads;
  std::vector<size_t> mismatches(4, 0);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &mismatches, node, digest, t] {
      for (int i = 0; i < 2000; ++i) {
        std::vector<Value> copies(8, shared);
        Value inner = copies[i % 8].Field("items");
        copies.clear();
        if (&shared.AsMap() != node || inner.AsList().size() != 3 ||
            (i % 256 == 0 && shared.DigestValue() != digest)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (size_t m : mismatches) {
    EXPECT_EQ(m, 0u);
  }
  EXPECT_EQ(shared.DigestValue(), digest);
}

}  // namespace
}  // namespace karousos
