#include "schema/schema.h"

#include <gtest/gtest.h>

#include "../testing/tree_walk.h"

namespace smb::schema {
namespace {

using testing::IsAncestor;
using testing::TreeDistance;

Schema MakeLibrary() {
  // library
  //   book
  //     title
  //     author
  //       name
  //   member
  Schema s("lib");
  NodeId root = s.AddRoot("library").value();
  NodeId book = s.AddChild(root, "book").value();
  s.AddChild(book, "title", "string").value();
  NodeId author = s.AddChild(book, "author").value();
  s.AddChild(author, "name", "string").value();
  s.AddChild(root, "member").value();
  return s;
}

TEST(SchemaTest, EmptySchema) {
  Schema s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.root(), kInvalidNode);
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_TRUE(s.PreOrder().empty());
}

TEST(SchemaTest, AddRootTwiceFails) {
  Schema s;
  EXPECT_TRUE(s.AddRoot("a").ok());
  auto second = s.AddRoot("b");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SchemaTest, AddChildRejectsInvalidParent) {
  Schema s;
  s.AddRoot("a").value();
  EXPECT_FALSE(s.AddChild(99, "x").ok());
  EXPECT_FALSE(s.AddChild(kInvalidNode, "x").ok());
}

TEST(SchemaTest, EmptyNamesRejected) {
  Schema s;
  EXPECT_FALSE(s.AddRoot("").ok());
  s.AddRoot("a").value();
  EXPECT_FALSE(s.AddChild(0, "").ok());
}

TEST(SchemaTest, DepthTracking) {
  Schema s = MakeLibrary();
  EXPECT_EQ(s.node(0).depth, 0);  // library
  EXPECT_EQ(s.node(1).depth, 1);  // book
  EXPECT_EQ(s.node(2).depth, 2);  // title
  EXPECT_EQ(s.node(4).depth, 3);  // name
}

TEST(SchemaTest, PreOrderVisitsAllInDocumentOrder) {
  Schema s = MakeLibrary();
  auto order = s.PreOrder();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(s.node(order[0]).name, "library");
  EXPECT_EQ(s.node(order[1]).name, "book");
  EXPECT_EQ(s.node(order[2]).name, "title");
  EXPECT_EQ(s.node(order[3]).name, "author");
  EXPECT_EQ(s.node(order[4]).name, "name");
  EXPECT_EQ(s.node(order[5]).name, "member");
}

TEST(SchemaTest, Leaves) {
  Schema s = MakeLibrary();
  auto leaves = s.Leaves();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(s.node(leaves[0]).name, "title");
  EXPECT_EQ(s.node(leaves[1]).name, "name");
  EXPECT_EQ(s.node(leaves[2]).name, "member");
}

TEST(SchemaTest, PathOf) {
  Schema s = MakeLibrary();
  EXPECT_EQ(s.PathOf(0), "library");
  EXPECT_EQ(s.PathOf(4), "library/book/author/name");
  EXPECT_EQ(s.PathOf(kInvalidNode), "");
  EXPECT_EQ(s.PathOf(99), "");
}

TEST(SchemaTest, TreeDistance) {
  Schema s = MakeLibrary();
  EXPECT_EQ(TreeDistance(s, 0, 0), 0);
  EXPECT_EQ(TreeDistance(s, 0, 1), 1);   // library-book
  EXPECT_EQ(TreeDistance(s, 2, 4), 3);   // title -> book -> author -> name
  EXPECT_EQ(TreeDistance(s, 4, 5), 4);   // name..member via root
  EXPECT_EQ(TreeDistance(s, 1, 99), -1);
}

TEST(SchemaTest, TreeDistanceSymmetric) {
  Schema s = MakeLibrary();
  for (NodeId a = 0; a < static_cast<NodeId>(s.size()); ++a) {
    for (NodeId b = 0; b < static_cast<NodeId>(s.size()); ++b) {
      EXPECT_EQ(TreeDistance(s, a, b), TreeDistance(s, b, a));
    }
  }
}

TEST(SchemaTest, IsAncestor) {
  Schema s = MakeLibrary();
  EXPECT_TRUE(IsAncestor(s, 0, 4));   // library of name
  EXPECT_TRUE(IsAncestor(s, 1, 4));   // book of name
  EXPECT_TRUE(IsAncestor(s, 3, 3));   // reflexive
  EXPECT_FALSE(IsAncestor(s, 4, 1));  // not inverted
  EXPECT_FALSE(IsAncestor(s, 2, 4));  // siblingish
  EXPECT_FALSE(IsAncestor(s, 99, 0));
}

TEST(SchemaTest, RenameAndSetType) {
  Schema s = MakeLibrary();
  s.RenameNode(2, "heading");
  EXPECT_EQ(s.node(2).name, "heading");
  s.RenameNode(2, "");  // ignored
  EXPECT_EQ(s.node(2).name, "heading");
  s.SetNodeType(2, "text");
  EXPECT_EQ(s.node(2).type, "text");
  s.RenameNode(99, "x");  // out of range: ignored, no crash
}

TEST(SchemaTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(MakeLibrary().Validate().ok());
}

TEST(SchemaTest, StructurallyEquals) {
  Schema a = MakeLibrary();
  Schema b = MakeLibrary();
  b.set_name("other-doc-name");
  EXPECT_TRUE(a.StructurallyEquals(b));
  b.RenameNode(2, "caption");
  EXPECT_FALSE(a.StructurallyEquals(b));
}

TEST(SchemaTest, StructurallyEqualsDetectsTypeChange) {
  Schema a = MakeLibrary();
  Schema b = MakeLibrary();
  b.SetNodeType(2, "int");
  EXPECT_FALSE(a.StructurallyEquals(b));
}

TEST(SchemaTest, StructurallyEqualsDetectsShapeChange) {
  Schema a = MakeLibrary();
  Schema b = MakeLibrary();
  b.AddChild(0, "extra").value();
  EXPECT_FALSE(a.StructurallyEquals(b));
}

TEST(SchemaTest, IsValidBounds) {
  Schema s = MakeLibrary();
  EXPECT_TRUE(s.IsValid(0));
  EXPECT_TRUE(s.IsValid(5));
  EXPECT_FALSE(s.IsValid(6));
  EXPECT_FALSE(s.IsValid(-1));
}

}  // namespace
}  // namespace smb::schema
