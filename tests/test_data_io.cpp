// IDX and CIFAR-10 binary readers: fixed byte streams decode to known
// values, and malformed input is rejected.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "xbarsec/common/error.hpp"
#include "xbarsec/data/cifar_io.hpp"
#include "xbarsec/data/idx_io.hpp"
#include "xbarsec/data/loaders.hpp"

namespace xbarsec::data {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<unsigned char>;

Bytes concat(Bytes a, const Bytes& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/// A CIFAR-10 record: the label byte, then pixel p holds byte (p·step + shift) mod 256.
Bytes cifar_record(unsigned char label, std::size_t step, std::size_t shift) {
    Bytes record{label};
    for (std::size_t p = 0; p < cifar::kPixelsPerImage; ++p)
        record.push_back(static_cast<unsigned char>((p * step + shift) % 256));
    return record;
}

class DataIoTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "xbarsec_io_test";
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    void write(const char* name, const Bytes& bytes) const {
        std::ofstream out(path(name), std::ios::binary);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(out.good());
    }

    fs::path dir_;
};

TEST_F(DataIoTest, IdxImagesDecodeFixedBytes) {
    // Two 1×3 images; bytes are rescaled by 1/255.
    write("imgs", {0, 0, 0x08, 3,  0, 0, 0, 2,  0, 0, 0, 1,  0, 0, 0, 3,
                   0, 51, 255, 102, 204, 153});
    const idx::Images images = idx::read_images(path("imgs"));
    EXPECT_EQ(images.rows, 1u);
    EXPECT_EQ(images.cols, 3u);
    EXPECT_EQ(images.pixels, (tensor::Matrix{{0.0, 0.2, 1.0}, {0.4, 0.8, 0.6}}));
}

TEST_F(DataIoTest, IdxLabelsDecodeFixedBytes) {
    // A count of 258 spans two bytes of the big-endian extent.
    Bytes payload;
    std::vector<int> expected;
    for (int i = 0; i < 258; ++i) {
        payload.push_back(static_cast<unsigned char>(i % 10));
        expected.push_back(i % 10);
    }
    write("labels", concat({0, 0, 0x08, 1,  0, 0, 1, 2}, payload));
    EXPECT_EQ(idx::read_labels(path("labels")), expected);
}

TEST_F(DataIoTest, IdxMissingFileThrowsIoError) {
    EXPECT_THROW(idx::read_images(path("does-not-exist")), IoError);
    EXPECT_THROW(idx::read_labels(path("does-not-exist")), IoError);
}

TEST_F(DataIoTest, IdxBadMagicThrowsParseError) {
    std::ofstream out(path("bad"), std::ios::binary);
    out.write("\xFF\xFF\x08\x03", 4);
    out.close();
    EXPECT_THROW(idx::read_images(path("bad")), ParseError);
}

TEST_F(DataIoTest, IdxWrongRankThrowsParseError) {
    write("labels", {0, 0, 0x08, 1,  0, 0, 0, 2,  1, 2});
    // A label file (rank 1) read as images (rank 3) must fail cleanly.
    EXPECT_THROW(idx::read_images(path("labels")), ParseError);
}

TEST_F(DataIoTest, IdxTruncatedDataThrowsParseError) {
    // Valid header claiming 2 images of 2x2, but only 3 data bytes.
    std::ofstream out(path("trunc"), std::ios::binary);
    const unsigned char header[] = {0, 0, 0x08, 3, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2};
    out.write(reinterpret_cast<const char*>(header), sizeof header);
    out.write("abc", 3);
    out.close();
    EXPECT_THROW(idx::read_images(path("trunc")), ParseError);
}

TEST_F(DataIoTest, CifarDecodesFixedRecords) {
    write("batch.bin", concat(cifar_record(3, 1, 0), cifar_record(9, 7, 200)));
    const Dataset batch = cifar::read_batch(path("batch.bin"));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.labels(), (std::vector<int>{3, 9}));
    EXPECT_EQ(batch.num_classes(), 10u);
    EXPECT_EQ(batch.name(), "batch.bin");
    for (std::size_t p = 0; p < cifar::kPixelsPerImage; ++p) {
        EXPECT_EQ(batch.inputs()(0, p), static_cast<double>(p % 256) / 255.0);
        EXPECT_EQ(batch.inputs()(1, p), static_cast<double>((p * 7 + 200) % 256) / 255.0);
    }
}

TEST_F(DataIoTest, CifarPartialRecordThrows) {
    std::ofstream out(path("bad.bin"), std::ios::binary);
    std::vector<char> bytes(cifar::kRecordBytes + 7, 0);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    EXPECT_THROW(cifar::read_batch(path("bad.bin")), ParseError);
}

TEST_F(DataIoTest, CifarBadLabelThrows) {
    std::ofstream out(path("badlabel.bin"), std::ios::binary);
    std::vector<char> record(cifar::kRecordBytes, 0);
    record[0] = 11;  // labels are 0..9
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    out.close();
    EXPECT_THROW(cifar::read_batch(path("badlabel.bin")), ParseError);
}

TEST_F(DataIoTest, CifarReadBatchesConcatenates) {
    write("b1.bin", concat(cifar_record(2, 1, 0), cifar_record(4, 3, 1)));
    write("b2.bin", cifar_record(5, 5, 9));
    const Dataset all = cifar::read_batches({path("b1.bin"), path("b2.bin")}, "joined");
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all.name(), "joined");
    EXPECT_EQ(all.labels(), (std::vector<int>{2, 4, 5}));
    for (std::size_t p = 0; p < cifar::kPixelsPerImage; ++p)
        EXPECT_EQ(all.inputs()(2, p), static_cast<double>((p * 5 + 9) % 256) / 255.0);
}

TEST_F(DataIoTest, LoaderFallsBackToSyntheticWhenFilesAbsent) {
    LoadOptions options;
    options.data_dir = dir_.string();  // exists but has no dataset files
    options.train_count = 30;
    options.test_count = 10;
    EXPECT_FALSE(mnist_files_present(options.data_dir));
    EXPECT_FALSE(cifar10_files_present(options.data_dir));
    const DataSplit mnist = load_mnist_like(options);
    EXPECT_EQ(mnist.train.size(), 30u);
    EXPECT_EQ(mnist.train.input_dim(), 784u);
    const DataSplit cifar = load_cifar10_like(options);
    EXPECT_EQ(cifar.test.size(), 10u);
    EXPECT_EQ(cifar.train.input_dim(), 3072u);
}

TEST_F(DataIoTest, LoaderUsesRealMnistFilesWhenPresent) {
    // Tiny IDX files in the MNIST naming scheme: the loader must pick them
    // up (and truncate to the requested counts).
    Bytes pixels;
    Bytes labels;
    for (std::size_t i = 0; i < 20; ++i) {
        for (std::size_t p = 0; p < 784; ++p) pixels.push_back(static_cast<unsigned char>(i + p));
        labels.push_back(static_cast<unsigned char>(i % 10));
    }
    const Bytes images = concat({0, 0, 0x08, 3,  0, 0, 0, 20,  0, 0, 0, 28,  0, 0, 0, 28}, pixels);
    const Bytes label_file = concat({0, 0, 0x08, 1,  0, 0, 0, 20}, labels);
    write("train-images-idx3-ubyte", images);
    write("train-labels-idx1-ubyte", label_file);
    write("t10k-images-idx3-ubyte", images);
    write("t10k-labels-idx1-ubyte", label_file);

    LoadOptions options;
    options.data_dir = dir_.string();
    options.train_count = 10;
    options.test_count = 5;
    EXPECT_TRUE(mnist_files_present(options.data_dir));
    const DataSplit split = load_mnist_like(options);
    EXPECT_EQ(split.train.size(), 10u);
    EXPECT_EQ(split.test.size(), 5u);
    EXPECT_EQ(split.train.name(), "mnist-train");
}

}  // namespace
}  // namespace xbarsec::data
