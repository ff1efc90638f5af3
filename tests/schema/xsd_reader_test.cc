#include "schema/xsd_reader.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "schema/repository.h"

namespace smb::schema {
namespace {

constexpr const char* kPurchaseOrderXsd = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="purchaseOrder">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="shipTo" type="AddressType"/>
        <xs:element name="items">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="item" type="xs:string"/>
            </xs:sequence>
            <xs:attribute name="count" type="xs:int"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
      <xs:attribute name="orderDate" type="xs:date"/>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="AddressType">
    <xs:sequence>
      <xs:element name="street" type="xs:string"/>
      <xs:element name="city" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>)";

TEST(XsdReaderTest, ReadsNestedStructure) {
  auto schema = ReadXsd(kPurchaseOrderXsd, "po.xsd");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->name(), "po.xsd");
  EXPECT_TRUE(schema->Validate().ok());
  // purchaseOrder, shipTo, street, city, items, item, @count, @orderDate
  EXPECT_EQ(schema->size(), 8u);
  EXPECT_EQ(schema->node(schema->root()).name, "purchaseOrder");
}

TEST(XsdReaderTest, ResolvesNamedComplexType) {
  auto schema = ReadXsd(kPurchaseOrderXsd, "po.xsd").value();
  // shipTo's children come from AddressType.
  bool found_street = false;
  for (NodeId id : schema.PreOrder()) {
    if (schema.PathOf(id) == "purchaseOrder/shipTo/street") {
      found_street = true;
      EXPECT_EQ(schema.node(id).type, "string");
    }
  }
  EXPECT_TRUE(found_street);
}

TEST(XsdReaderTest, AttributesBecomeAtPrefixedLeaves) {
  auto schema = ReadXsd(kPurchaseOrderXsd, "po.xsd").value();
  bool found = false;
  for (NodeId id : schema.PreOrder()) {
    if (schema.node(id).name == "@orderDate") {
      found = true;
      EXPECT_EQ(schema.node(id).type, "date");
      EXPECT_EQ(schema.node(schema.node(id).parent).name, "purchaseOrder");
    }
  }
  EXPECT_TRUE(found);
}

TEST(XsdReaderTest, AttributesCanBeExcluded) {
  XsdReadOptions options;
  options.include_attributes = false;
  auto schema = ReadXsd(kPurchaseOrderXsd, "po.xsd", options).value();
  for (NodeId id : schema.PreOrder()) {
    EXPECT_NE(schema.node(id).name[0], '@');
  }
  EXPECT_EQ(schema.size(), 6u);
}

TEST(XsdReaderTest, StripsXsPrefixFromTypes) {
  auto schema = ReadXsd(kPurchaseOrderXsd, "po.xsd").value();
  for (NodeId id : schema.PreOrder()) {
    EXPECT_EQ(schema.node(id).type.find("xs:"), std::string::npos);
  }
}

TEST(XsdReaderTest, ElementRefResolution) {
  const char* xsd = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="root">
      <xs:complexType><xs:sequence>
        <xs:element ref="xs:shared"/>
      </xs:sequence></xs:complexType>
    </xs:element>
    <xs:element name="shared" type="xs:string"/>
  </xs:schema>)";
  // Note: multiple top-level elements are rejected; 'shared' is top-level.
  auto schema = ReadXsd(xsd, "ref.xsd");
  ASSERT_FALSE(schema.ok());  // two top-level elements
}

TEST(XsdReaderTest, ChoiceAndAllGroupsFlatten) {
  const char* xsd = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="r">
      <xs:complexType>
        <xs:choice>
          <xs:element name="a"/>
          <xs:all>
            <xs:element name="b"/>
            <xs:element name="c"/>
          </xs:all>
        </xs:choice>
      </xs:complexType>
    </xs:element>
  </xs:schema>)";
  auto schema = ReadXsd(xsd, "choice.xsd");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->size(), 4u);
}

TEST(XsdReaderTest, RecursiveTypeIsCutAtMaxDepth) {
  const char* xsd = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="tree" type="TreeType"/>
    <xs:complexType name="TreeType">
      <xs:sequence>
        <xs:element name="child" type="TreeType"/>
      </xs:sequence>
    </xs:complexType>
  </xs:schema>)";
  XsdReadOptions options;
  options.max_depth = 5;
  auto schema = ReadXsd(xsd, "rec.xsd", options);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_LE(schema->size(), 7u);
  EXPECT_TRUE(schema->Validate().ok());
}

// A type that refers to itself twice doubles at every level, so the
// expansion cut at depth 16 has 2^17 - 1 elements: the reader accepts it,
// but it is too large for a repository, and a directory holding it fails to
// load with InvalidArgument instead of allocating its relation codes.
TEST(XsdReaderTest, DoublyRecursiveTypeIsTooLargeForARepository) {
  const char* xsd = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="tree" type="TreeType"/>
    <xs:complexType name="TreeType">
      <xs:sequence>
        <xs:element name="left" type="TreeType"/>
        <xs:element name="right" type="TreeType"/>
      </xs:sequence>
    </xs:complexType>
  </xs:schema>)";
  auto schema = ReadXsd(xsd, "tree.xsd");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->size(), (size_t{1} << 17) - 1);

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "xsd_doubly_recursive";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "tree.xsd") << xsd;
  auto repo = LoadRepositoryDir(dir.string());
  ASSERT_FALSE(repo.ok());
  EXPECT_EQ(repo.status().code(), StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(XsdReaderTest, ComplexContentExtension) {
  const char* xsd = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="r">
      <xs:complexType>
        <xs:complexContent>
          <xs:extension base="Base">
            <xs:sequence><xs:element name="extra"/></xs:sequence>
          </xs:extension>
        </xs:complexContent>
      </xs:complexType>
    </xs:element>
  </xs:schema>)";
  auto schema = ReadXsd(xsd, "ext.xsd");
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->size(), 2u);
}

TEST(XsdReaderTest, RejectsNonSchemaRoot) {
  auto schema = ReadXsd("<notSchema/>", "x");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
}

TEST(XsdReaderTest, RejectsNoTopLevelElement) {
  auto schema = ReadXsd(
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\"/>", "x");
  ASSERT_FALSE(schema.ok());
}

TEST(XsdReaderTest, RejectsMalformedXml) {
  auto schema = ReadXsd("<xs:schema><unclosed>", "x");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kParseError);
}

TEST(XsdReaderTest, RejectsElementWithoutNameOrRef) {
  const char* xsd = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="r">
      <xs:complexType><xs:sequence>
        <xs:element type="xs:string"/>
      </xs:sequence></xs:complexType>
    </xs:element>
  </xs:schema>)";
  EXPECT_FALSE(ReadXsd(xsd, "x").ok());
}

TEST(XsdReaderTest, MissingFileGivesIOError) {
  auto schema = ReadXsdFile("/does/not/exist.xsd");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace smb::schema
