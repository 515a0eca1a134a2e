#include "xbarsec/data/idx_io.hpp"

#include <algorithm>
#include <fstream>

#include "xbarsec/common/error.hpp"

namespace xbarsec::data::idx {

namespace {

constexpr std::uint8_t kTypeUnsignedByte = 0x08;

std::uint32_t read_be32(std::istream& in, const std::string& path) {
    unsigned char b[4];
    in.read(reinterpret_cast<char*>(b), 4);
    if (!in) throw ParseError("unexpected EOF in IDX header of '" + path + "'");
    return (std::uint32_t(b[0]) << 24) | (std::uint32_t(b[1]) << 16) | (std::uint32_t(b[2]) << 8) |
           std::uint32_t(b[3]);
}

/// Reads and validates the 4-byte magic; returns the dimension count.
std::size_t read_magic(std::istream& in, const std::string& path, std::size_t expected_rank) {
    unsigned char magic[4];
    in.read(reinterpret_cast<char*>(magic), 4);
    if (!in) throw ParseError("file too short for IDX magic: '" + path + "'");
    if (magic[0] != 0 || magic[1] != 0) throw ParseError("bad IDX magic in '" + path + "'");
    if (magic[2] != kTypeUnsignedByte) {
        throw ParseError("unsupported IDX element type in '" + path +
                         "' (only unsigned byte is supported)");
    }
    const std::size_t rank = magic[3];
    if (rank != expected_rank) {
        throw ParseError("IDX rank mismatch in '" + path + "': expected " +
                         std::to_string(expected_rank) + ", found " + std::to_string(rank));
    }
    return rank;
}

}  // namespace

Images read_images(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open '" + path + "'");
    read_magic(in, path, 3);
    const std::uint32_t count = read_be32(in, path);
    const std::uint32_t rows = read_be32(in, path);
    const std::uint32_t cols = read_be32(in, path);
    if (rows == 0 || cols == 0) throw ParseError("zero image extent in '" + path + "'");

    const std::size_t per_image = std::size_t{rows} * cols;
    std::vector<unsigned char> buf(per_image);
    Images out;
    out.rows = rows;
    out.cols = cols;
    out.pixels = tensor::Matrix(count, per_image);
    for (std::uint32_t i = 0; i < count; ++i) {
        in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(per_image));
        if (!in) throw ParseError("truncated image data in '" + path + "'");
        auto row = out.pixels.row_span(i);
        for (std::size_t p = 0; p < per_image; ++p) row[p] = static_cast<double>(buf[p]) / 255.0;
    }
    return out;
}

std::vector<int> read_labels(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open '" + path + "'");
    read_magic(in, path, 1);
    const std::uint32_t count = read_be32(in, path);
    std::vector<unsigned char> buf(count);
    in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(count));
    if (!in) throw ParseError("truncated label data in '" + path + "'");
    std::vector<int> labels(count);
    std::transform(buf.begin(), buf.end(), labels.begin(),
                   [](unsigned char b) { return static_cast<int>(b); });
    return labels;
}

}  // namespace xbarsec::data::idx
