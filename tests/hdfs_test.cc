// Tests for the simulated HDFS cluster: namespace, blocks, persistence,
// availability injection, fsimage crash-safety, fault sites.

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/fs.h"
#include "storage/hdfs/hdfs.h"

namespace fbstream::hdfs {
namespace {

class HdfsTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = MakeTempDir("hdfs"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(root_).ok()); }
  std::string root_;
};

TEST_F(HdfsTest, WriteReadRoundTrip) {
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/data/file1", "hello hdfs").ok());
  auto read = hdfs.ReadFile("/data/file1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello hdfs");
  EXPECT_TRUE(hdfs.Exists("/data/file1"));
  EXPECT_FALSE(hdfs.Exists("/data/other"));
}

TEST_F(HdfsTest, LargeFileSplitsIntoBlocks) {
  HdfsOptions options;
  options.block_bytes = 1024;
  HdfsCluster hdfs(root_, options);
  const std::string data(5000, 'x');
  ASSERT_TRUE(hdfs.WriteFile("/big", data).ok());
  auto info = hdfs.Stat("/big");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->length, 5000u);
  EXPECT_EQ(info->num_blocks, 5);
  auto read = hdfs.ReadFile("/big");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(HdfsTest, OverwriteReplacesContent) {
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/f", "v1").ok());
  ASSERT_TRUE(hdfs.WriteFile("/f", "v2-longer").ok());
  auto read = hdfs.ReadFile("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v2-longer");
}

TEST_F(HdfsTest, DeleteRemoves) {
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/f", "v").ok());
  ASSERT_TRUE(hdfs.DeleteFile("/f").ok());
  EXPECT_FALSE(hdfs.Exists("/f"));
  EXPECT_TRUE(hdfs.ReadFile("/f").status().IsNotFound());
  EXPECT_TRUE(hdfs.DeleteFile("/f").IsNotFound());
}

TEST_F(HdfsTest, DeleteFilesRemovesAllOrNothing) {
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/a", "1").ok());
  ASSERT_TRUE(hdfs.WriteFile("/b", "2").ok());
  ASSERT_TRUE(hdfs.WriteFile("/c", "3").ok());
  EXPECT_TRUE(hdfs.DeleteFiles({"/a", "/missing"}).IsNotFound());
  EXPECT_TRUE(hdfs.Exists("/a"));
  ASSERT_TRUE(hdfs.DeleteFiles({"/a", "/b"}).ok());
  EXPECT_FALSE(hdfs.Exists("/a"));
  EXPECT_FALSE(hdfs.Exists("/b"));
  EXPECT_EQ(*hdfs.ReadFile("/c"), "3");
  // The deletions are in the persisted namespace.
  HdfsCluster reopened(root_);
  auto names = reopened.ListFiles("");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"/c"});
}

TEST_F(HdfsTest, ListFilesUnderDirectory) {
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/backup/app/a.sst", "1").ok());
  ASSERT_TRUE(hdfs.WriteFile("/backup/app/MANIFEST", "2").ok());
  ASSERT_TRUE(hdfs.WriteFile("/other/x", "3").ok());
  auto names = hdfs.ListFiles("/backup/app");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[0], "MANIFEST");
  EXPECT_EQ((*names)[1], "a.sst");
}

TEST_F(HdfsTest, UnavailableFailsEverythingThenRecovers) {
  // §4.4.2: "HDFS ... is not intended to be an always-available system."
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/f", "v").ok());
  hdfs.SetAvailable(false);
  EXPECT_TRUE(hdfs.WriteFile("/g", "x").IsUnavailable());
  EXPECT_TRUE(hdfs.ReadFile("/f").status().IsUnavailable());
  EXPECT_TRUE(hdfs.ListFiles("/").status().IsUnavailable());
  EXPECT_FALSE(hdfs.Exists("/f"));
  hdfs.SetAvailable(true);
  auto read = hdfs.ReadFile("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v");
}

TEST_F(HdfsTest, NamespaceSurvivesRestart) {
  {
    HdfsCluster hdfs(root_);
    ASSERT_TRUE(hdfs.WriteFile("/persist/me", "durable-data").ok());
  }
  HdfsCluster hdfs(root_);
  auto read = hdfs.ReadFile("/persist/me");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "durable-data");
}

TEST_F(HdfsTest, UsedBytesTracksContent) {
  HdfsCluster hdfs(root_);
  EXPECT_EQ(hdfs.UsedBytes(), 0u);
  ASSERT_TRUE(hdfs.WriteFile("/a", std::string(100, 'a')).ok());
  ASSERT_TRUE(hdfs.WriteFile("/b", std::string(50, 'b')).ok());
  EXPECT_EQ(hdfs.UsedBytes(), 150u);
  ASSERT_TRUE(hdfs.DeleteFile("/a").ok());
  EXPECT_EQ(hdfs.UsedBytes(), 50u);
}

TEST_F(HdfsTest, EmptyFileIsValid) {
  HdfsCluster hdfs(root_);
  ASSERT_TRUE(hdfs.WriteFile("/empty", "").ok());
  auto read = hdfs.ReadFile("/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(HdfsTest, StaleFsimageTmpIsIgnoredAndCleaned) {
  {
    HdfsCluster hdfs(root_);
    ASSERT_TRUE(hdfs.WriteFile("/keep/me", "good").ok());
  }
  // Simulate a crash between the temp write and the rename: a torn tmp file
  // next to the committed image. Recovery must consult only the image.
  ASSERT_TRUE(WriteFile(root_ + "/fsimage.tmp", "torn garbage \xff\x01").ok());
  HdfsCluster hdfs(root_);
  auto read = hdfs.ReadFile("/keep/me");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "good");
  EXPECT_FALSE(FileExists(root_ + "/fsimage.tmp"));
  // And the next persisted namespace still round-trips.
  ASSERT_TRUE(hdfs.WriteFile("/keep/more", "v").ok());
  HdfsCluster again(root_);
  EXPECT_TRUE(again.Exists("/keep/me"));
  EXPECT_TRUE(again.Exists("/keep/more"));
}

TEST_F(HdfsTest, WriteFaultSiteInjectsFailure) {
  FaultRegistry::Global()->Reset();
  HdfsCluster hdfs(root_);
  FaultRegistry::Global()->FailNext("hdfs.write");
  EXPECT_TRUE(hdfs.WriteFile("/f", "v").IsUnavailable());
  ASSERT_TRUE(hdfs.WriteFile("/f", "v").ok());  // One-shot: next succeeds.
  FaultRegistry::Global()->FailNext("hdfs.read");
  EXPECT_TRUE(hdfs.ReadFile("/f").status().IsUnavailable());
  auto read = hdfs.ReadFile("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v");
  FaultRegistry::Global()->Reset();
}

}  // namespace
}  // namespace fbstream::hdfs
