// IDX file format reader (the MNIST distribution format).
//
// Header: two zero bytes, a type code byte (0x08 = unsigned byte), a
// dimension-count byte, then big-endian uint32 extents, then raw data.
// Only the unsigned-byte payload type is supported — that is what MNIST
// ships — and images are rescaled to [0, 1] doubles on load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xbarsec/tensor/matrix.hpp"

namespace xbarsec::data::idx {

/// Decoded IDX image stack.
struct Images {
    tensor::Matrix pixels;  ///< count × (rows·cols), values in [0, 1]
    std::size_t rows = 0;
    std::size_t cols = 0;
};

/// Reads a rank-3 IDX image file (count × rows × cols). Throws IoError /
/// ParseError on malformed input.
Images read_images(const std::string& path);

/// Reads a rank-1 IDX label file. Throws IoError / ParseError.
std::vector<int> read_labels(const std::string& path);

}  // namespace xbarsec::data::idx
