// CIFAR-10 binary-batch reader.
//
// Each batch file is a sequence of 3073-byte records: one label byte then
// 3072 pixel bytes in planar RGB order (1024 R, 1024 G, 1024 B). Pixels
// are rescaled to [0, 1] doubles on load.
#pragma once

#include <string>
#include <vector>

#include "xbarsec/data/dataset.hpp"

namespace xbarsec::data::cifar {

/// Record geometry of the CIFAR-10 binary format.
inline constexpr std::size_t kImageSize = 32;
inline constexpr std::size_t kPixelsPerImage = 3 * kImageSize * kImageSize;
inline constexpr std::size_t kRecordBytes = 1 + kPixelsPerImage;

/// Reads one batch file into a Dataset (num_classes = 10). Throws
/// IoError / ParseError on malformed input (size must be a multiple of
/// the record length).
Dataset read_batch(const std::string& path, const std::string& name = {});

/// Reads and concatenates several batch files.
Dataset read_batches(const std::vector<std::string>& paths, const std::string& name = {});

}  // namespace xbarsec::data::cifar
