#include <gtest/gtest.h>

#include "data/json.h"
#include "data/table.h"
#include "data/xml.h"

namespace llmdm::data {
namespace {

TEST(Value, NullSemantics) {
  Value n = Value::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n, Value::Null());
  EXPECT_FALSE(n == Value::Int(0));
  EXPECT_EQ(n.ToString(), "NULL");
}

TEST(Value, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(3), Value::Real(3.0));
  EXPECT_FALSE(Value::Int(3) == Value::Real(3.5));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
}

TEST(Value, Ordering) {
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Int(1), Value::Real(1.5));
  EXPECT_LT(Value::Text("a"), Value::Text("b"));
  EXPECT_LT(Value::MakeDate(2023, 8, 13), Value::MakeDate(2023, 8, 14));
}

TEST(Value, DateToString) {
  EXPECT_EQ(Value::MakeDate(2023, 8, 14).ToString(), "2023-08-14");
}

TEST(Value, IsoDateParsing) {
  Date d;
  EXPECT_TRUE(ParseIsoDate("2023-08-14", &d));
  EXPECT_EQ(d.year, 2023);
  EXPECT_FALSE(ParseIsoDate("2023-13-14", &d));
  EXPECT_FALSE(ParseIsoDate("08/14/2023", &d));
}

TEST(Schema, CaseInsensitiveLookup) {
  Schema s({{"Name", ColumnType::kText, true},
            {"Age", ColumnType::kInt64, true}});
  EXPECT_EQ(s.Find("name"), 0u);
  EXPECT_EQ(s.Find("AGE"), 1u);
  EXPECT_FALSE(s.Find("missing").has_value());
}

Table MakeSampleTable() {
  Table t("people", Schema({{"name", ColumnType::kText, true},
                            {"age", ColumnType::kInt64, true}}));
  EXPECT_TRUE(t.AppendRow({Value::Text("alice"), Value::Int(30)}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Text("bob"), Value::Int(25)}).ok());
  return t;
}

TEST(Table, AppendValidates) {
  Table t = MakeSampleTable();
  EXPECT_FALSE(t.AppendRow({Value::Text("x")}).ok());  // arity
  EXPECT_FALSE(t.AppendRow({Value::Int(1), Value::Int(2)}).ok());  // type
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value::Null()}).ok());  // nullable
}

TEST(Table, NonNullableRejectsNull) {
  Table t("t", Schema({{"id", ColumnType::kInt64, false}}));
  EXPECT_FALSE(t.AppendRow({Value::Null()}).ok());
}

TEST(Table, IntWidensIntoDoubleColumn) {
  Table t("t", Schema({{"x", ColumnType::kDouble, true}}));
  ASSERT_TRUE(t.AppendRow({Value::Int(3)}).ok());
  EXPECT_TRUE(t.at(0, 0).is_double());
  EXPECT_DOUBLE_EQ(t.at(0, 0).AsDouble(), 3.0);
}

TEST(Table, BagEqualsIgnoresOrder) {
  Table a = MakeSampleTable();
  Table b("other", a.schema());
  ASSERT_TRUE(b.AppendRow({Value::Text("bob"), Value::Int(25)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Text("alice"), Value::Int(30)}).ok());
  EXPECT_TRUE(a.BagEquals(b));
  EXPECT_EQ(a.BagHash(), b.BagHash());
}

TEST(Table, BagEqualsDetectsDifferences) {
  Table a = MakeSampleTable();
  Table b = MakeSampleTable();
  ASSERT_TRUE(b.AppendRow({Value::Text("carol"), Value::Int(41)}).ok());
  EXPECT_FALSE(a.BagEquals(b));
  Table c("c", a.schema());
  ASSERT_TRUE(c.AppendRow({Value::Text("alice"), Value::Int(31)}).ok());
  ASSERT_TRUE(c.AppendRow({Value::Text("bob"), Value::Int(25)}).ok());
  EXPECT_FALSE(a.BagEquals(c));
}

TEST(Table, ProjectReorders) {
  Table t = MakeSampleTable();
  auto p = t.Project({"age", "name"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->schema().column(0).name, "age");
  EXPECT_EQ(p->at(0, 0), Value::Int(30));
  EXPECT_FALSE(t.Project({"nope"}).ok());
}

TEST(Table, SerializeRowAsText) {
  Table t = MakeSampleTable();
  EXPECT_EQ(t.SerializeRowAsText(0), "name is alice; age is 30");
}

// --- JSON ---------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e2")->AsNumber(), -250.0);
  EXPECT_EQ(ParseJson("\"hi\\nthere\"")->AsString(), "hi\nthere");
}

TEST(Json, ParsesNested) {
  auto v = ParseJson(R"({"a": [1, {"b": "x"}], "c": null})");
  ASSERT_TRUE(v.ok());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->items().size(), 2u);
  EXPECT_EQ(a->items()[1].Find("b")->AsString(), "x");
  EXPECT_TRUE(v->Find("c")->is_null());
}

TEST(Json, PreservesKeyOrder) {
  auto v = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->members()[0].first, "z");
  EXPECT_EQ(v->members()[1].first, "a");
  EXPECT_EQ(v->members()[2].first, "m");
}

TEST(Json, RoundTrip) {
  std::string doc = R"({"a":[1,2,3],"b":{"c":"d"},"e":true})";
  auto v = ParseJson(doc);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), doc);
}

TEST(Json, RejectsGarbage) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

TEST(Json, UnicodeEscape) {
  auto v = ParseJson("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "A\xc3\xa9");
}

// --- XML ---------------------------------------------------------------

TEST(Xml, ParsesElements) {
  auto root = ParseXml(R"(<?xml version="1.0"?>
<patients>
  <patient id="1"><name>Alice</name><age>30</age></patient>
  <patient id="2"><name>Bob</name></patient>
</patients>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->tag, "patients");
  auto kids = (*root)->FindChildren("patient");
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0]->Attribute("id"), "1");
  EXPECT_EQ(kids[0]->FindChild("name")->text, "Alice");
  EXPECT_EQ(kids[1]->FindChild("age"), nullptr);
}

TEST(Xml, Entities) {
  auto root = ParseXml("<a b=\"x &amp; y\">1 &lt; 2</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->Attribute("b"), "x & y");
  EXPECT_EQ((*root)->text, "1 < 2");
}

TEST(Xml, SelfClosingAndComments) {
  auto root = ParseXml("<r><!-- note --><x/><y a='1'/></r>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->children.size(), 2u);
  EXPECT_EQ((*root)->children[1]->Attribute("a"), "1");
}

TEST(Xml, MismatchedTagRejected) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
}

TEST(Xml, RoundTripParsesBack) {
  auto root = ParseXml("<r><x a=\"1\">hi</x><y/></r>");
  ASSERT_TRUE(root.ok());
  std::string serialized = (*root)->ToString();
  auto again = ParseXml(serialized);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->children.size(), 2u);
  EXPECT_EQ((*again)->children[0]->text, "hi");
}

}  // namespace
}  // namespace llmdm::data
