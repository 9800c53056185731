#include <cstddef>
#include "support/table.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "support/str.hpp"

namespace cgra {
namespace {

bool LooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c != '.' && c != '-' && c != '+' && c != '%' && c != 'e' &&
               c != 'x') {
      return false;
    }
  }
  return digit;
}

}  // namespace

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(Row{std::move(row), pending_rule_});
  pending_rule_ = false;
}

void TextTable::AddRule() { pending_rule_ = true; }

std::string TextTable::Render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.cells.size(); ++c) {
      width[c] = std::max(width[c], r.cells[c].size());
    }
  }

  auto rule = [&] {
    std::string line = "+";
    for (std::size_t w : width) line += std::string(w + 2, '-') + "+";
    return line + "\n";
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += ' ';
      line += Pad(cells[c], width[c], LooksNumeric(cells[c]));
      line += " |";
    }
    return line + "\n";
  };

  std::string out = rule() + emit(header_) + rule();
  for (const auto& r : rows_) {
    if (r.rule_before) out += rule();
    out += emit(r.cells);
  }
  out += rule();
  return out;
}

}  // namespace cgra
