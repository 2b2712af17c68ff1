#include "array/ops.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/string_utils.h"

namespace fc::array {

std::string_view AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kAvg: return "avg";
    case AggKind::kSum: return "sum";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kCount: return "count";
  }
  return "?";
}

namespace {

// Running aggregate state for one window/attribute.
struct AggState {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::int64_t count = 0;

  void Add(double v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++count;
  }

  double Finish(AggKind kind) const {
    switch (kind) {
      case AggKind::kAvg: return count > 0 ? sum / static_cast<double>(count) : 0.0;
      case AggKind::kSum: return sum;
      case AggKind::kMin: return min;
      case AggKind::kMax: return max;
      case AggKind::kCount: return static_cast<double>(count);
    }
    return 0.0;
  }
};

}  // namespace

Result<DenseArray> Subarray(const DenseArray& in, const Coords& low,
                            const Coords& high) {
  const auto& schema = in.schema();
  if (low.size() != schema.num_dims() || high.size() != schema.num_dims()) {
    return Status::InvalidArgument("subarray bounds must have one entry per dimension");
  }
  std::vector<Dimension> out_dims;
  for (std::size_t i = 0; i < schema.num_dims(); ++i) {
    const auto& d = schema.dims()[i];
    if (low[i] > high[i]) {
      return Status::InvalidArgument(
          StrFormat("subarray low > high along %s", d.name.c_str()));
    }
    if (low[i] < d.start || high[i] > d.end()) {
      return Status::OutOfRange(
          StrFormat("subarray box exceeds array extent along %s", d.name.c_str()));
    }
    out_dims.push_back(Dimension{d.name, low[i], high[i] - low[i] + 1,
                                 std::min(d.chunk_interval, high[i] - low[i] + 1)});
  }
  FC_ASSIGN_OR_RETURN(
      auto out_schema,
      ArraySchema::Make(in.schema().name() + "_sub", std::move(out_dims),
                        in.schema().attrs()));
  DenseArray out(std::move(out_schema));

  // Walk the output box and copy present cells.
  std::int64_t total = out.schema().cell_count();
  std::size_t nattr = schema.num_attrs();
  for (std::int64_t oi = 0; oi < total; ++oi) {
    Coords c = out.CoordsOf(oi);
    if (!in.IsPresent(c)) continue;
    std::int64_t ii = in.LinearIndex(c);
    for (std::size_t a = 0; a < nattr; ++a) {
      out.SetLinear(oi, a, in.GetLinear(ii, a));
    }
  }
  return out;
}

Result<DenseArray> RegridMulti(const DenseArray& in,
                               const std::vector<std::int64_t>& intervals,
                               const std::vector<AggKind>& kinds,
                               std::string out_name) {
  const auto& schema = in.schema();
  if (intervals.size() != schema.num_dims()) {
    return Status::InvalidArgument("regrid needs one interval per dimension");
  }
  if (kinds.size() != schema.num_attrs()) {
    return Status::InvalidArgument("regrid needs one aggregate per attribute");
  }
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (intervals[i] <= 0) {
      return Status::InvalidArgument("regrid intervals must be positive");
    }
  }
  std::vector<Dimension> out_dims;
  for (std::size_t i = 0; i < schema.num_dims(); ++i) {
    const auto& d = schema.dims()[i];
    std::int64_t out_len = (d.length + intervals[i] - 1) / intervals[i];
    std::int64_t chunk = std::min(d.chunk_interval, out_len);
    out_dims.push_back(Dimension{d.name, 0, out_len, chunk});
  }
  FC_ASSIGN_OR_RETURN(auto out_schema,
                      ArraySchema::Make(std::move(out_name), std::move(out_dims),
                                        schema.attrs()));
  DenseArray out(std::move(out_schema));

  std::size_t nattr = schema.num_attrs();
  std::int64_t out_total = out.schema().cell_count();
  std::vector<std::vector<AggState>> states(
      static_cast<std::size_t>(out_total), std::vector<AggState>(nattr));

  in.ForEachPresent([&](std::int64_t ii, const Coords& c) {
    Coords oc(c.size());
    for (std::size_t d = 0; d < c.size(); ++d) {
      oc[d] = (c[d] - schema.dims()[d].start) / intervals[d];
    }
    auto oi = static_cast<std::size_t>(out.LinearIndex(oc));
    for (std::size_t a = 0; a < nattr; ++a) {
      states[oi][a].Add(in.GetLinear(ii, a));
    }
  });

  for (std::int64_t oi = 0; oi < out_total; ++oi) {
    const auto& st = states[static_cast<std::size_t>(oi)];
    if (st[0].count == 0) continue;  // window had no present cells
    for (std::size_t a = 0; a < nattr; ++a) {
      out.SetLinear(oi, a, st[a].Finish(kinds[a]));
    }
  }
  return out;
}

Result<DenseArray> Regrid(const DenseArray& in, const std::vector<std::int64_t>& intervals,
                          AggKind kind, std::string out_name) {
  return RegridMulti(in, intervals,
                     std::vector<AggKind>(in.schema().num_attrs(), kind),
                     std::move(out_name));
}

Result<DenseArray> Apply(const DenseArray& in, const std::string& new_attr,
                         const CellUdf& udf) {
  auto attrs = in.schema().attrs();
  for (const auto& a : attrs) {
    if (a.name == new_attr) {
      return Status::AlreadyExists("attribute already exists: " + new_attr);
    }
  }
  attrs.push_back(Attribute{new_attr});
  FC_ASSIGN_OR_RETURN(auto out_schema,
                      ArraySchema::Make(in.schema().name(), in.schema().dims(),
                                        std::move(attrs)));
  DenseArray out(std::move(out_schema));
  std::size_t nattr = in.schema().num_attrs();
  std::vector<double> cell(nattr);
  const std::int64_t total = in.schema().cell_count();
  for (std::int64_t ii = 0; ii < total; ++ii) {
    if (!in.PresentLinear(ii)) continue;
    for (std::size_t a = 0; a < nattr; ++a) cell[a] = in.GetLinear(ii, a);
    for (std::size_t a = 0; a < nattr; ++a) out.SetLinear(ii, a, cell[a]);
    out.SetLinear(ii, nattr, udf(cell));
  }
  return out;
}

Result<DenseArray> Join(const DenseArray& a, const DenseArray& b,
                        std::string out_name) {
  if (!a.schema().SameShape(b.schema())) {
    return Status::InvalidArgument(
        "join requires identical dimension boxes: " + a.schema().ToString() +
        " vs " + b.schema().ToString());
  }
  std::vector<Attribute> attrs = a.schema().attrs();
  std::set<std::string> names;
  for (const auto& at : attrs) names.insert(at.name);
  for (const auto& at : b.schema().attrs()) {
    std::string name = at.name;
    while (names.count(name) > 0) name += "_2";
    names.insert(name);
    attrs.push_back(Attribute{name});
  }
  FC_ASSIGN_OR_RETURN(auto out_schema,
                      ArraySchema::Make(std::move(out_name), a.schema().dims(),
                                        std::move(attrs)));
  DenseArray out(std::move(out_schema));
  std::size_t na = a.schema().num_attrs();
  std::size_t nb = b.schema().num_attrs();
  // SameShape fixes each dimension's start and length, so a cell has one
  // linear index in a, b and the output. A cell is present in the join when
  // it is present in both.
  const std::int64_t total = a.schema().cell_count();
  for (std::int64_t ii = 0; ii < total; ++ii) {
    if (!a.PresentLinear(ii) || !b.PresentLinear(ii)) continue;
    for (std::size_t x = 0; x < na; ++x) out.SetLinear(ii, x, a.GetLinear(ii, x));
    for (std::size_t x = 0; x < nb; ++x) out.SetLinear(ii, na + x, b.GetLinear(ii, x));
  }
  return out;
}

Result<DenseArray> Filter(const DenseArray& in, const CellPredicate& pred,
                          std::string out_name) {
  FC_ASSIGN_OR_RETURN(auto out_schema,
                      ArraySchema::Make(std::move(out_name), in.schema().dims(),
                                        in.schema().attrs()));
  DenseArray out(std::move(out_schema));
  std::size_t nattr = in.schema().num_attrs();
  std::vector<double> cell(nattr);
  const std::int64_t total = in.schema().cell_count();
  for (std::int64_t ii = 0; ii < total; ++ii) {
    if (!in.PresentLinear(ii)) continue;
    for (std::size_t a = 0; a < nattr; ++a) cell[a] = in.GetLinear(ii, a);
    if (!pred(cell)) continue;
    for (std::size_t a = 0; a < nattr; ++a) out.SetLinear(ii, a, cell[a]);
  }
  return out;
}

Result<double> AggregateAll(const DenseArray& in, std::size_t attr, AggKind kind) {
  if (attr >= in.schema().num_attrs()) {
    return Status::NotFound("attribute index out of range");
  }
  AggState st;
  const std::int64_t total = in.schema().cell_count();
  for (std::int64_t ii = 0; ii < total; ++ii) {
    if (in.PresentLinear(ii)) st.Add(in.GetLinear(ii, attr));
  }
  if (st.count == 0 && (kind == AggKind::kMin || kind == AggKind::kMax)) {
    return Status::FailedPrecondition("min/max over an empty array");
  }
  return st.Finish(kind);
}

}  // namespace fc::array
