// The sharded detector is detect::StreamingDetector with
// StreamingConfig::shards > 1 (see detect/streaming.h): per-shard parallel
// accumulation, then one exact find_plotters over the spliced per-shard
// features, bit-identical verdicts at every shard count. These names remain
// for callers written against the former separate class.
#pragma once

#include "detect/streaming.h"

namespace tradeplot::shard {

using ShardedConfig = detect::StreamingConfig;
using ShardedDetector = detect::StreamingDetector;

}  // namespace tradeplot::shard
