#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace gridtrust {

std::string format_grouped(double value, int precision) {
  GT_REQUIRE(precision >= 0 && precision <= 12, "precision out of range");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, std::abs(value));
  std::string digits(buf);
  std::string frac;
  if (const auto dot = digits.find('.'); dot != std::string::npos) {
    frac = digits.substr(dot);  // includes the '.'
    digits.erase(dot);
  }
  std::string grouped;
  grouped.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) grouped.push_back(',');
    grouped.push_back(*it);
    ++count;
  }
  std::reverse(grouped.begin(), grouped.end());
  std::string out = (value < 0 && grouped != "0") ? "-" : "";
  return out + grouped + frac;
}

std::string format_percent(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%%", value);
  return std::string(buf);
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  GT_REQUIRE(!headers_.empty(), "a table needs at least one column");
  alignments_.assign(headers_.size(), Align::kRight);
  alignments_.front() = Align::kLeft;
}

void TextTable::set_title(std::string title) { title_ = std::move(title); }

void TextTable::set_alignments(std::vector<Align> alignments) {
  GT_REQUIRE(alignments.size() == headers_.size(),
             "alignment count must match column count");
  alignments_ = std::move(alignments);
}

void TextTable::add_row(std::vector<std::string> cells) {
  GT_REQUIRE(cells.size() == headers_.size(),
             "row width must match column count");
  rows_.push_back(Row{std::move(cells)});
}

void TextTable::add_separator() { rows_.push_back(Row{}); }

namespace {

/// Display width of a UTF-8 cell: its code points, i.e. the bytes that are
/// not continuation bytes (10xxxxxx).  "Γ" is two bytes but one column.
std::size_t display_width(const std::string& s) {
  return static_cast<std::size_t>(
      std::count_if(s.begin(), s.end(), [](char ch) {
        return (static_cast<unsigned char>(ch) & 0xC0u) != 0x80u;
      }));
}

std::string pad(const std::string& s, std::size_t width, Align align) {
  const std::size_t used = display_width(s);
  if (used >= width) return s;
  const std::size_t total = width - used;
  switch (align) {
    case Align::kLeft:
      return s + std::string(total, ' ');
    case Align::kRight:
      return std::string(total, ' ') + s;
    case Align::kCenter: {
      const std::size_t left = total / 2;
      return std::string(left, ' ') + s + std::string(total - left, ' ');
    }
  }
  return s;
}

}  // namespace

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = display_width(headers_[c]);
  }
  for (const Row& row : rows_) {
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row.cells[c]));
    }
  }

  auto hline = [&]() {
    std::string s = "+";
    for (const std::size_t w : widths) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      s += " " + pad(cells[c], widths[c], alignments_[c]) + " |";
    }
    s += "\n";
    return s;
  };

  std::ostringstream os;
  if (!title_.empty()) os << title_ << "\n";
  os << hline();
  os << render_row(headers_);
  os << hline();
  for (const Row& row : rows_) {
    if (row.cells.empty()) {
      os << hline();
    } else {
      os << render_row(row.cells);
    }
  }
  os << hline();
  return os.str();
}

std::string TextTable::to_csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += "\"\"";
      else out.push_back(ch);
    }
    out += "\"";
    return out;
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c ? "," : "") << escape(headers_[c]);
  }
  os << "\n";
  for (const Row& row : rows_) {
    if (row.cells.empty()) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      os << (c ? "," : "") << escape(row.cells[c]);
    }
    os << "\n";
  }
  return os.str();
}

std::string TextTable::to_markdown() const {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '|') out += "\\|";
      else out.push_back(ch);
    }
    return out;
  };
  std::ostringstream os;
  if (!title_.empty()) os << "**" << title_ << "**\n\n";
  os << "|";
  for (const std::string& h : headers_) os << " " << escape(h) << " |";
  os << "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (alignments_[c] == Align::kRight
               ? " ---: |"
               : (alignments_[c] == Align::kCenter ? " :---: |" : " --- |"));
  }
  os << "\n";
  for (const Row& row : rows_) {
    if (row.cells.empty()) continue;
    os << "|";
    for (const std::string& cell : row.cells) {
      os << " " << escape(cell) << " |";
    }
    os << "\n";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) {
  return os << table.to_string();
}

}  // namespace gridtrust
