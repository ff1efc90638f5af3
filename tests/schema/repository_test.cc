#include "schema/repository.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../testing/tree_walk.h"

namespace smb::schema {
namespace {

Schema MakeSmall(const std::string& doc, const std::string& root_name,
                 int leaves) {
  Schema s(doc);
  NodeId root = s.AddRoot(root_name).value();
  for (int i = 0; i < leaves; ++i) {
    s.AddChild(root, root_name + "-leaf" + std::to_string(i)).value();
  }
  return s;
}

TEST(RepositoryTest, AddAndAccess) {
  SchemaRepository repo;
  EXPECT_EQ(repo.Add(MakeSmall("a", "alpha", 2)).value(), 0);
  EXPECT_EQ(repo.Add(MakeSmall("b", "beta", 3)).value(), 1);
  EXPECT_EQ(repo.schema_count(), 2u);
  EXPECT_EQ(repo.total_elements(), 3u + 4u);
  EXPECT_EQ(repo.schema(0).name(), "a");
  EXPECT_EQ(repo.schema(1).name(), "b");
}

TEST(RepositoryTest, RejectsEmptySchema) {
  SchemaRepository repo;
  EXPECT_FALSE(repo.Add(Schema("empty")).ok());
  EXPECT_EQ(repo.schema_count(), 0u);
}

TEST(RepositoryTest, AllElementsEnumeratesEverything) {
  SchemaRepository repo;
  repo.Add(MakeSmall("a", "alpha", 2)).value();
  repo.Add(MakeSmall("b", "beta", 1)).value();
  auto elements = repo.AllElements();
  ASSERT_EQ(elements.size(), 5u);
  EXPECT_EQ(elements[0], (ElementRef{0, 0}));
  EXPECT_EQ(elements[3], (ElementRef{1, 0}));
  EXPECT_EQ(repo.Resolve(elements[3]).name, "beta");
}

TEST(RepositoryTest, IsValidRef) {
  SchemaRepository repo;
  repo.Add(MakeSmall("a", "alpha", 1)).value();
  EXPECT_TRUE(repo.IsValidRef(ElementRef{0, 0}));
  EXPECT_TRUE(repo.IsValidRef(ElementRef{0, 1}));
  EXPECT_FALSE(repo.IsValidRef(ElementRef{0, 2}));
  EXPECT_FALSE(repo.IsValidRef(ElementRef{1, 0}));
  EXPECT_FALSE(repo.IsValidRef(ElementRef{-1, 0}));
}

TEST(RepositoryTest, FindByName) {
  SchemaRepository repo;
  repo.Add(MakeSmall("first", "a", 1)).value();
  repo.Add(MakeSmall("second", "b", 1)).value();
  EXPECT_EQ(repo.FindByName("second"), 1);
  EXPECT_EQ(repo.FindByName("missing"), -1);
}

/// library { book { title, author { name } }, member }
Schema MakeLibrary() {
  Schema s("lib");
  NodeId root = s.AddRoot("library").value();
  NodeId book = s.AddChild(root, "book").value();
  s.AddChild(book, "title").value();
  NodeId author = s.AddChild(book, "author").value();
  s.AddChild(author, "name").value();
  s.AddChild(root, "member").value();
  return s;
}

/// The n × n codes of schema `index`, copied out.
std::vector<RelationCode> CodesOf(const SchemaRepository& repo,
                                  int32_t index) {
  const size_t n = repo.schema(index).size();
  return std::vector<RelationCode>(repo.relation_codes(index),
                                   repo.relation_codes(index) + n * n);
}

TEST(RepositoryTest, RelationCodesMatchTreeWalks) {
  SchemaRepository repo;
  repo.Add(MakeSmall("a", "alpha", 3)).value();
  repo.Add(MakeLibrary()).value();
  const Schema& s = repo.schema(1);
  const std::vector<RelationCode> codes = CodesOf(repo, 1);
  const auto n = static_cast<NodeId>(s.size());
  for (NodeId p = 0; p < n; ++p) {
    for (NodeId c = 0; c < n; ++c) {
      const RelationCode code = codes[static_cast<size_t>(p * n + c)];
      EXPECT_EQ(RelationDistance(code), testing::TreeDistance(s, p, c));
      RelationKind kind = RelationKind::kUnrelated;
      if (p == c) {
        kind = RelationKind::kSame;
      } else if (testing::IsAncestor(s, p, c)) {
        kind = RelationKind::kAncestor;
      } else if (testing::IsAncestor(s, c, p)) {
        kind = RelationKind::kInverted;
      }
      EXPECT_EQ(RelationKindOf(code), kind) << p << " -> " << c;
    }
  }
  // name (4) and member (5) are 4 edges apart, the widest pair of both
  // schemas.
  EXPECT_EQ(*std::max_element(codes.begin(), codes.end()),
            MakeRelationCode(RelationKind::kUnrelated, 4));
  EXPECT_EQ(repo.max_relation_code(),
            MakeRelationCode(RelationKind::kUnrelated, 4));
  // Schema 1's codes follow schema 0's 4 × 4.
  EXPECT_EQ(repo.relation_codes(1), repo.relation_codes(0) + 16);
}

TEST(RepositoryTest, RejectedAddLeavesRelationCodesUnchanged) {
  SchemaRepository repo;
  repo.Add(MakeLibrary()).value();
  const std::vector<RelationCode> codes = CodesOf(repo, 0);
  const RelationCode max_code = repo.max_relation_code();

  EXPECT_FALSE(repo.Add(Schema("empty")).ok());
  // One element over the bound: rejected before any code is built.
  auto too_large = repo.Add(MakeSmall("large", "n", kMaxSchemaElements));
  ASSERT_FALSE(too_large.ok());
  EXPECT_EQ(too_large.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(repo.schema_count(), 1u);
  EXPECT_EQ(CodesOf(repo, 0), codes);
  EXPECT_EQ(repo.max_relation_code(), max_code);
  // The next schema's codes start right after the first one's 6 × 6.
  EXPECT_EQ(repo.Add(MakeSmall("b", "beta", 1)).value(), 1);
  EXPECT_EQ(repo.relation_codes(1), repo.relation_codes(0) + 36);
  EXPECT_EQ(CodesOf(repo, 1),
            (std::vector<RelationCode>{
                MakeRelationCode(RelationKind::kSame, 0),
                MakeRelationCode(RelationKind::kAncestor, 1),
                MakeRelationCode(RelationKind::kInverted, 1),
                MakeRelationCode(RelationKind::kSame, 0)}));
}

TEST(RepositoryTest, AcceptsASchemaAtTheSizeBound) {
  SchemaRepository repo;
  // A chain, so the farthest pair is kMaxSchemaElements - 1 edges apart.
  Schema chain("chain");
  NodeId cur = chain.AddRoot("n").value();
  for (size_t i = 1; i < kMaxSchemaElements; ++i) {
    cur = chain.AddChild(cur, "n").value();
  }
  ASSERT_TRUE(repo.Add(std::move(chain)).ok());
  const auto n = static_cast<NodeId>(kMaxSchemaElements);
  const RelationCode root_to_leaf = repo.relation_codes(0)[n - 1];
  EXPECT_EQ(root_to_leaf, MakeRelationCode(RelationKind::kAncestor, n - 1));
  EXPECT_EQ(repo.max_relation_code(),
            MakeRelationCode(RelationKind::kInverted, n - 1));
}

TEST(RepositoryTest, CopyKeepsRelationCodes) {
  SchemaRepository repo;
  repo.Add(MakeLibrary()).value();
  repo.Add(MakeSmall("a", "alpha", 5)).value();
  const SchemaRepository copy = repo;
  EXPECT_EQ(copy.max_relation_code(), repo.max_relation_code());
  for (int32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(CodesOf(copy, i), CodesOf(repo, i));
    EXPECT_NE(copy.relation_codes(i), repo.relation_codes(i));
  }
}

TEST(RepositoryTest, ElementRefOrdering) {
  EXPECT_LT((ElementRef{0, 5}), (ElementRef{1, 0}));
  EXPECT_LT((ElementRef{1, 0}), (ElementRef{1, 3}));
  EXPECT_EQ((ElementRef{2, 2}), (ElementRef{2, 2}));
}

}  // namespace
}  // namespace smb::schema
