// Fixture: allocation inside a `// fedrec:hot` region.
// Linted under the path key "src/fed/hot_push_back.cc".
#include <vector>

namespace fedrec {

// fedrec:hot
void AccumulateRow(std::vector<float>& sink, float value) {
  sink.push_back(value);
  sink.assign(sink.size() + 1, value);
}

// Outside the hot region the same call is fine.
void AccumulateRowCold(std::vector<float>& sink, float value) {
  sink.push_back(value);
  sink.assign(sink.size() + 1, value);
}

}  // namespace fedrec
