#include "matrix/block_reader.h"

#include <memory>
#include <utility>

namespace sans {

bool BlockQueue::Push(RowBlock&& block) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stalls_ != nullptr && !aborted_ && blocks_.size() >= capacity_) {
    stalls_->Increment();  // producer is about to wait: backpressure
  }
  not_full_.wait(lock,
                 [this] { return aborted_ || blocks_.size() < capacity_; });
  if (aborted_) {
    return false;
  }
  SANS_CHECK(!closed_);
  blocks_.push_back(std::move(block));
  if (depth_ != nullptr) depth_->Set(static_cast<int64_t>(blocks_.size()));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool BlockQueue::Pop(RowBlock* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock,
                  [this] { return aborted_ || closed_ || !blocks_.empty(); });
  if (aborted_ || blocks_.empty()) {
    return false;  // aborted, or closed and drained
  }
  *out = std::move(blocks_.front());
  blocks_.pop_front();
  if (depth_ != nullptr) depth_->Set(static_cast<int64_t>(blocks_.size()));
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void BlockQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

void BlockQueue::Abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    blocks_.clear();
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

namespace {

// Handles resolved once per process; hot-path updates are relaxed
// atomic adds.
struct PipelineMetrics {
  Counter* rows_scanned;
  Counter* blocks_produced;
  Counter* blocks_consumed;
  Gauge* queue_depth;
  Counter* stalls;
};

const PipelineMetrics& Metrics() {
  static const PipelineMetrics metrics = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return PipelineMetrics{
        registry.GetCounter("sans_scan_rows_total"),
        registry.GetCounter("sans_pipeline_blocks_produced_total"),
        registry.GetCounter("sans_pipeline_blocks_consumed_total"),
        registry.GetGauge("sans_pipeline_queue_depth"),
        registry.GetCounter("sans_pipeline_backpressure_stalls_total")};
  }();
  return metrics;
}

// THE block loop: reads `stream` to its end, packing rows into blocks
// of up to `block_rows` rows, and hands each full block — and, after a
// clean end of stream, the final partial one — to `emit`, which may
// move the block away. Rows are counted into sans_scan_rows_total once
// their block is accepted; no other code increments that counter.
Status ScanBlocks(RowStream* stream, size_t block_rows,
                  const std::function<Status(RowBlock& block)>& emit) {
  const PipelineMetrics& metrics = Metrics();
  RowBlock block;
  const auto flush = [&]() -> Status {
    const size_t rows = block.size();
    SANS_RETURN_IF_ERROR(emit(block));
    metrics.rows_scanned->Increment(rows);
    metrics.blocks_produced->Increment();
    block.Clear();
    return Status::OK();
  };
  RowView view;
  while (stream->Next(&view)) {
    block.Append(view.row, view.columns);
    if (block.size() >= block_rows) SANS_RETURN_IF_ERROR(flush());
  }
  // A false Next() is only a clean end of table when the stream says
  // so: a truncated scan fails instead of ending "cleanly".
  SANS_RETURN_IF_ERROR(stream->stream_status());
  if (!block.empty()) SANS_RETURN_IF_ERROR(flush());
  return Status::OK();
}

}  // namespace

int BlockWorkers(const ExecutionConfig& config, const ThreadPool* pool) {
  return pool == nullptr ? 1 : config.num_threads;
}

Status ForEachStreamBlock(RowStream* stream, const BlockConsumer& consume,
                          int block_rows) {
  SANS_CHECK_GE(block_rows, 1);
  return ScanBlocks(stream, static_cast<size_t>(block_rows),
                    [&consume](RowBlock& block) {
                      Metrics().blocks_consumed->Increment();
                      return consume(0, block);
                    });
}

Status ForEachRowBlock(const RowStreamSource& source,
                       const ExecutionConfig& config, ThreadPool* pool,
                       const BlockConsumer& consume) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
  const int workers = BlockWorkers(config, pool);
  if (workers == 1) {
    return ForEachStreamBlock(stream.get(), consume, config.block_rows);
  }

  const PipelineMetrics& metrics = Metrics();
  BlockQueue queue(static_cast<size_t>(config.queue_depth));
  queue.SetInstruments(metrics.queue_depth, metrics.stalls);
  std::vector<Status> worker_status(workers);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int pending = workers;

  for (int w = 0; w < workers; ++w) {
    pool->Submit([w, &queue, &consume, &worker_status, &done_mu, &done_cv,
                  &pending, &metrics] {
      RowBlock block;
      while (queue.Pop(&block)) {
        metrics.blocks_consumed->Increment();
        const Status status = consume(w, block);
        if (!status.ok()) {
          worker_status[w] = status;
          queue.Abort();
          break;
        }
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--pending == 0) {
        done_cv.notify_all();
      }
    });
  }

  // The calling thread is the reader: the only thread touching the
  // stream, so the source is scanned exactly once. A failed Push means
  // a worker aborted the queue; that worker's error is reported below.
  bool aborted = false;
  const Status reader_status = ScanBlocks(
      stream.get(), static_cast<size_t>(config.block_rows),
      [&queue, &aborted](RowBlock& block) {
        if (queue.Push(std::move(block))) return Status::OK();
        aborted = true;
        return Status::Internal("block queue aborted");
      });
  if (reader_status.ok()) {
    queue.Close();
  } else {
    queue.Abort();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&pending] { return pending == 0; });
  }
  if (!aborted) SANS_RETURN_IF_ERROR(reader_status);
  for (const Status& status : worker_status) {
    SANS_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace sans
