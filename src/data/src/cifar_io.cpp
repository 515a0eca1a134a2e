#include "xbarsec/data/cifar_io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/error.hpp"

namespace xbarsec::data::cifar {

Dataset read_batch(const std::string& path, const std::string& name) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open '" + path + "'");
    in.seekg(0, std::ios::end);
    const auto bytes = static_cast<std::size_t>(in.tellg());
    in.seekg(0, std::ios::beg);
    if (bytes == 0 || bytes % kRecordBytes != 0) {
        throw ParseError("'" + path + "' is not a whole number of CIFAR-10 records (" +
                         std::to_string(bytes) + " bytes)");
    }
    const std::size_t count = bytes / kRecordBytes;

    tensor::Matrix inputs(count, kPixelsPerImage);
    std::vector<int> labels(count);
    std::vector<unsigned char> record(kRecordBytes);
    for (std::size_t i = 0; i < count; ++i) {
        in.read(reinterpret_cast<char*>(record.data()), static_cast<std::streamsize>(kRecordBytes));
        if (!in) throw ParseError("truncated record in '" + path + "'");
        if (record[0] > 9) throw ParseError("label byte out of range in '" + path + "'");
        labels[i] = record[0];
        auto row = inputs.row_span(i);
        for (std::size_t p = 0; p < kPixelsPerImage; ++p) {
            row[p] = static_cast<double>(record[p + 1]) / 255.0;
        }
    }
    const ImageShape shape{kImageSize, kImageSize, 3};
    return Dataset(std::move(inputs), std::move(labels), 10, shape,
                   name.empty() ? std::filesystem::path(path).filename().string() : name);
}

Dataset read_batches(const std::vector<std::string>& paths, const std::string& name) {
    XS_EXPECTS(!paths.empty());
    std::vector<Dataset> parts;
    parts.reserve(paths.size());
    std::size_t total = 0;
    for (const auto& p : paths) {
        parts.push_back(read_batch(p));
        total += parts.back().size();
    }
    tensor::Matrix inputs(total, kPixelsPerImage);
    std::vector<int> labels;
    labels.reserve(total);
    std::size_t row = 0;
    for (const auto& part : parts) {
        for (std::size_t i = 0; i < part.size(); ++i, ++row) {
            const auto src = part.inputs().row_span(i);
            auto dst = inputs.row_span(row);
            std::copy(src.begin(), src.end(), dst.begin());
            labels.push_back(part.label(i));
        }
    }
    const ImageShape shape{kImageSize, kImageSize, 3};
    return Dataset(std::move(inputs), std::move(labels), 10, shape, name);
}

}  // namespace xbarsec::data::cifar
