// Dense request x machine cost matrices (EEC, ESC, ECC, trust cost).
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace gridtrust::sched {

/// Row-major dense matrix; rows are requests, columns are machines.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    GT_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& at(std::size_t r, std::size_t c) {
    GT_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    GT_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops (heuristic inner loops).
  T get(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Unchecked pointer to row r's cols() entries.
  T* row(std::size_t r) { return data_.data() + r * cols_; }
  const T* row(std::size_t r) const { return data_.data() + r * cols_; }

  const std::vector<T>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using CostMatrix = Matrix<double>;
using TrustCostMatrix = Matrix<int>;

}  // namespace gridtrust::sched
