// Seeded inputs of one workload: the document the service ingests
// (the workload's fixed document, the same for every seed), the client
// script every pass replays, and the answer an uncompressed tree gives
// to each read of the script at the version that read sees.
//
// The script is generated once per run by replaying its own updates
// on a plain binary tree (the library's ApplyOpToTree semantics), so
// the expected answers come from an oracle that never touches a
// grammar. Every pass of a run replays the same script against a
// freshly ingested service.

#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/datasets/generators.h"
#include "src/tree/label_table.h"
#include "src/workload/update_workload.h"

namespace perfbench {

// Every workload writes in batches of kBatchOps operations and calls
// Flush() after every kFlushEveryOps acknowledged operations.
inline constexpr int kBatchOps = 4;
inline constexpr int kFlushEveryOps = 64;

struct WorkloadSpec {
  const char* name;
  slg::Corpus corpus;
  double scale;
  // Journal fsync after every commit (acked = durable) or never.
  bool fsync_every_batch;
  int batches;  // write batches of kBatchOps operations per pass
  // Reads after each batch: read-your-writes LabelAt at the positions
  // the batch's last operations wrote, then LabelAt at uniform
  // positions, FindElement, and path queries after every
  // query_stride-th batch.
  int ryw_labels;
  int labels_per_batch;
  int finds_per_batch;
  int queries_per_batch;
  int query_stride;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

enum class StepKind { kLabelAt, kFind, kQuery, kBatch, kFlush };

struct Step {
  StepKind kind;
  int64_t pos = 0;   // LabelAt: preorder position; Find: k
  std::string text;  // Find: tag; Query: query text
  int batch = -1;    // Batch: index into Script::batches
  // Expected answer. found == false means the read must be NotFound.
  bool found = true;
  std::string label;   // LabelAt
  int64_t value = 0;   // Find: position; Query: first/nth position
  int64_t count = 0;   // Query: match count
  bool exists = false; // Query
};

struct Script {
  std::string ingest_xml;  // the workload's fixed document
  // The table the ops' LabelIds index: the fixed document's binary
  // encoding. Ingest interns the document's labels in its own order,
  // so a client translates the ops by name before applying them.
  slg::LabelTable labels;
  std::vector<std::vector<slg::UpdateOp>> batches;
  std::vector<Step> steps;
  std::string final_xml;  // plain-tree replay of every batch
  int64_t ops = 0;        // update operations over all batches
};

Script MakeScript(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
