#include "mdwf/wload/wload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>
#include <utility>

#include "mdwf/common/rng.hpp"
#include "mdwf/common/suggest.hpp"
#include "mdwf/wload/json.hpp"

namespace mdwf::wload {
namespace {

[[noreturn]] void fail(std::string_view context, const std::string& what) {
  throw ConfigError(std::string(context) + ": " + what);
}

// Task-object keys the importer understands.  Fields the simulator does not
// model (cores, memory, ...) are accepted and ignored; anything else is a
// likely typo and rejected — silently dropping a misspelled `sizeInBytes`
// would import a zero-byte workflow.
constexpr std::string_view kTaskFields[] = {
    "name",     "id",        "category", "type",    "runtime",
    "runtimeInSeconds",      "parents",  "children", "files",
    "inputFiles", "outputFiles", "cores", "avgCPU",  "memory",
    "memoryInBytes",         "energy",   "priority", "machine",
    "machines", "command",   "bytesRead", "bytesWritten",
    "readBytes", "writtenBytes", "launchDir", "taskType",
};

constexpr std::string_view kFileFields[] = {
    "link", "name", "id", "size", "sizeInBytes", "path",
};

void check_fields(const JsonObject& obj, std::string_view context,
                  std::string_view where,
                  const std::vector<std::string_view>& known) {
  for (const auto& [key, value] : obj) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      fail(context, std::string(where) + ": unknown field '" + key + "'" +
                        did_you_mean(key, known));
    }
  }
}

std::string task_label(const JsonObject& obj, std::size_t index) {
  if (const auto it = obj.find("name"); it != obj.end() && it->second.is_string()) {
    return "task '" + it->second.as_string("name") + "'";
  }
  if (const auto it = obj.find("id"); it != obj.end() && it->second.is_string()) {
    return "task '" + it->second.as_string("id") + "'";
  }
  return "tasks[" + std::to_string(index) + "]";
}

double get_runtime_seconds(const JsonObject& obj, std::string_view context,
                           const std::string& label) {
  const auto rt = obj.find("runtime");
  const auto rts = obj.find("runtimeInSeconds");
  const JsonValue* v = nullptr;
  if (rts != obj.end()) {
    v = &rts->second;
  } else if (rt != obj.end()) {
    v = &rt->second;
  }
  if (v == nullptr) return 0.0;
  const double s = v->as_number(label + ".runtime");
  if (!std::isfinite(s) || s < 0.0) {
    fail(context, label + ": negative or non-finite runtime");
  }
  return s;
}

// Sum of this task's output file sizes (`link == "output"` entries in the
// classic schema); falls back to `bytesWritten` when no file list exists.
Bytes get_output_bytes(const JsonObject& obj, std::string_view context,
                       const std::string& label) {
  double total = 0.0;
  bool have_files = false;
  if (const JsonValue* files = (obj.count("files") != 0)
                                   ? &obj.find("files")->second
                                   : nullptr) {
    for (const JsonValue& f : files->as_array(label + ".files")) {
      const JsonObject& fo = f.as_object(label + ".files[]");
      check_fields(fo, context, label + ".files[]",
                   {std::begin(kFileFields), std::end(kFileFields)});
      const JsonValue* link = f.find("link");
      if (link == nullptr ||
          link->as_string(label + ".files[].link") != "output") {
        continue;
      }
      const JsonValue* size = f.find("sizeInBytes");
      if (size == nullptr) size = f.find("size");
      if (size == nullptr) {
        fail(context, label + ": output file without sizeInBytes");
      }
      const double b = size->as_number(label + ".files[].sizeInBytes");
      if (!std::isfinite(b) || b < 0.0) {
        fail(context, label + ": negative output file size");
      }
      total += b;
      have_files = true;
    }
  }
  if (!have_files) {
    if (const JsonValue* bw = obj.count("bytesWritten") != 0
                                  ? &obj.find("bytesWritten")->second
                                  : nullptr) {
      const double b = bw->as_number(label + ".bytesWritten");
      if (!std::isfinite(b) || b < 0.0) {
        fail(context, label + ": negative bytesWritten");
      }
      total = b;
    }
  }
  return Bytes(static_cast<std::uint64_t>(total));
}

// The task array of a classic instance (`workflow.tasks`, with the older
// `workflow.jobs` spelling accepted), or of a >=1.4 specification split.
const JsonArray& find_task_array(const JsonValue& workflow,
                                 std::string_view context,
                                 const JsonValue** execution_out) {
  *execution_out = nullptr;
  if (const JsonValue* spec = workflow.find("specification")) {
    *execution_out = workflow.find("execution");
    const JsonValue* tasks = spec->find("tasks");
    if (tasks == nullptr) {
      fail(context, "workflow.specification has no tasks array");
    }
    return tasks->as_array("workflow.specification.tasks");
  }
  const JsonValue* tasks = workflow.find("tasks");
  if (tasks == nullptr) tasks = workflow.find("jobs");
  if (tasks == nullptr) {
    fail(context, "workflow has no tasks array");
  }
  return tasks->as_array("workflow.tasks");
}

// Per-file byte sizes of a >=1.4 specification (`files[]` with ids), used
// to resolve a spec task's outputFiles list.
std::map<std::string, double, std::less<>> spec_file_sizes(
    const JsonValue& workflow, std::string_view context) {
  std::map<std::string, double, std::less<>> sizes;
  const JsonValue* spec = workflow.find("specification");
  if (spec == nullptr) return sizes;
  const JsonValue* files = spec->find("files");
  if (files == nullptr) return sizes;
  for (const JsonValue& f : files->as_array("workflow.specification.files")) {
    const JsonObject& fo = f.as_object("specification.files[]");
    check_fields(fo, context, "specification.files[]",
                 {std::begin(kFileFields), std::end(kFileFields)});
    const JsonValue* id = f.find("id");
    if (id == nullptr) id = f.find("name");
    if (id == nullptr) fail(context, "specification file without id");
    const JsonValue* size = f.find("sizeInBytes");
    if (size == nullptr) size = f.find("size");
    if (size == nullptr) {
      fail(context, "specification file '" +
                        id->as_string("files[].id") + "' has no sizeInBytes");
    }
    sizes.emplace(id->as_string("files[].id"),
                  size->as_number("files[].sizeInBytes"));
  }
  return sizes;
}

// Runtimes of a >=1.4 execution section, keyed by task id.
std::map<std::string, double, std::less<>> execution_runtimes(
    const JsonValue* execution, std::string_view context) {
  std::map<std::string, double, std::less<>> runtimes;
  if (execution == nullptr) return runtimes;
  const JsonValue* tasks = execution->find("tasks");
  if (tasks == nullptr) return runtimes;
  for (const JsonValue& t : tasks->as_array("workflow.execution.tasks")) {
    const JsonObject& to = t.as_object("execution.tasks[]");
    const JsonValue* id = to.count("id") != 0 ? &to.find("id")->second
                                              : nullptr;
    if (id == nullptr && to.count("name") != 0) id = &to.find("name")->second;
    if (id == nullptr) fail(context, "execution task without id");
    runtimes[id->as_string("execution.tasks[].id")] =
        get_runtime_seconds(to, context,
                            "execution task '" +
                                id->as_string("execution.tasks[].id") + "'");
  }
  return runtimes;
}

}  // namespace

std::size_t Dag::source_count() const {
  std::size_t n = 0;
  for (const TaskSpec& t : tasks) n += t.parents.empty() ? 1 : 0;
  return n;
}

std::size_t Dag::sink_count() const {
  std::size_t n = 0;
  for (const TaskSpec& t : tasks) n += t.children.empty() ? 1 : 0;
  return n;
}

std::size_t Dag::critical_path_tasks() const {
  // Tasks are topological after validate(): one forward pass suffices.
  std::vector<std::size_t> depth(tasks.size(), 1);
  std::size_t best = tasks.empty() ? 0 : 1;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const std::uint32_t p : tasks[i].parents) {
      depth[i] = std::max(depth[i], depth[p] + 1);
    }
    best = std::max(best, depth[i]);
  }
  return best;
}

Dag validate(Dag dag, std::string_view context) {
  const std::size_t n = dag.tasks.size();
  if (n == 0) fail(context, "workflow has no tasks");

  std::map<std::string, std::size_t, std::less<>> by_id;
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec& t = dag.tasks[i];
    if (t.id.empty()) {
      fail(context, "tasks[" + std::to_string(i) + "] has an empty id");
    }
    if (!by_id.emplace(t.id, i).second) {
      fail(context, "duplicate task id '" + t.id + "'");
    }
    if (t.runtime.is_negative()) {
      fail(context, "task '" + t.id + "' has a negative runtime");
    }
    for (const std::uint32_t p : t.parents) {
      if (p >= n) {
        fail(context, "task '" + t.id + "' has an out-of-range parent index " +
                          std::to_string(p));
      }
      if (p == i) {
        fail(context, "task '" + t.id + "' lists itself as a parent");
      }
    }
    // Dedup parents (a repeated parent would double-fetch the same frames).
    std::sort(t.parents.begin(), t.parents.end());
    t.parents.erase(std::unique(t.parents.begin(), t.parents.end()),
                    t.parents.end());
  }

  // Stable Kahn topological sort: among ready tasks, the smallest original
  // index goes first, so canonical order is deterministic and imported
  // order breaks ties.
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::uint32_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = dag.tasks[i].parents.size();
    for (const std::uint32_t p : dag.tasks[i].parents) {
      out[p].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<std::size_t> order;  // order[k] = original index of new task k
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t i = ready.top();
    ready.pop();
    order.push_back(i);
    for (const std::uint32_t c : out[i]) {
      if (--indegree[c] == 0) ready.push(c);
    }
  }
  if (order.size() != n) {
    // Every unplaced task sits on or downstream of a cycle; name the first
    // unplaced one whose parents are all unplaced — that is on the cycle.
    std::vector<bool> placed(n, false);
    for (const std::size_t i : order) placed[i] = true;
    std::string culprit;
    for (std::size_t i = 0; i < n && culprit.empty(); ++i) {
      if (placed[i]) continue;
      culprit = dag.tasks[i].id;
    }
    fail(context, "workflow graph has a cycle through task '" + culprit + "'");
  }

  // Renumber into topological order.
  std::vector<std::uint32_t> new_index(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    new_index[order[k]] = static_cast<std::uint32_t>(k);
  }
  Dag sorted;
  sorted.name = std::move(dag.name);
  sorted.tasks.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    TaskSpec t = std::move(dag.tasks[order[k]]);
    for (std::uint32_t& p : t.parents) p = new_index[p];
    std::sort(t.parents.begin(), t.parents.end());
    t.children.clear();
    sorted.tasks.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t p : sorted.tasks[i].parents) {
      sorted.tasks[p].children.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // A task with children must publish bytes: every edge moves at least one
  // frame through the connector, and a zero-byte frame is a schema error
  // (classic instances encode control-only edges with small files, not 0).
  for (const TaskSpec& t : sorted.tasks) {
    if (!t.children.empty() && t.output_bytes.is_zero()) {
      fail(context, "task '" + t.id +
                        "' has children but zero output bytes (did you mean "
                        "to set files[].sizeInBytes or bytesWritten?)");
    }
  }
  return sorted;
}

Dag parse_wfcommons(std::string_view json_text, std::string_view context) {
  const JsonValue doc = parse_json(json_text, context);
  const JsonObject& root = doc.as_object("document");
  const JsonValue* workflow = doc.find("workflow");
  if (workflow == nullptr) {
    std::vector<std::string_view> keys;
    keys.reserve(root.size());
    for (const auto& [k, v] : root) keys.push_back(k);
    fail(context, "document has no 'workflow' object" +
                      did_you_mean("workflow", keys));
  }

  const JsonValue* execution = nullptr;
  const JsonArray& task_array =
      find_task_array(*workflow, context, &execution);
  const auto file_sizes = spec_file_sizes(*workflow, context);
  const auto exec_runtimes = execution_runtimes(execution, context);
  const bool spec_form = workflow->find("specification") != nullptr;

  Dag dag;
  if (const JsonValue* name = doc.find("name")) {
    dag.name = name->as_string("name");
  }

  // Pass 1: ids and payloads, building the name -> index map.
  std::map<std::string, std::uint32_t, std::less<>> index_of;
  std::vector<const JsonObject*> raw;
  raw.reserve(task_array.size());
  for (std::size_t i = 0; i < task_array.size(); ++i) {
    const JsonObject& obj = task_array[i].as_object(
        "tasks[" + std::to_string(i) + "]");
    const std::string label = task_label(obj, i);
    check_fields(obj, context, label,
                 {std::begin(kTaskFields), std::end(kTaskFields)});

    TaskSpec t;
    if (const auto it = obj.find("name"); it != obj.end()) {
      t.id = it->second.as_string(label + ".name");
    } else if (const auto it2 = obj.find("id"); it2 != obj.end()) {
      t.id = it2->second.as_string(label + ".id");
    } else {
      fail(context, label + " has neither 'name' nor 'id'");
    }

    double runtime_s = get_runtime_seconds(obj, context, label);
    if (runtime_s == 0.0) {
      if (const auto it = exec_runtimes.find(t.id);
          it != exec_runtimes.end()) {
        runtime_s = it->second;
      }
    }
    t.runtime = Duration::seconds(runtime_s);

    if (spec_form && obj.count("outputFiles") != 0) {
      // Specification tasks reference files by id; sizes live in the
      // specification-level files table.
      double total = 0.0;
      const JsonValue& ofs = obj.find("outputFiles")->second;
      for (const JsonValue& fid : ofs.as_array(label + ".outputFiles")) {
        const std::string& id = fid.as_string(label + ".outputFiles[]");
        const auto it = file_sizes.find(id);
        if (it == file_sizes.end()) {
          std::vector<std::string_view> known;
          known.reserve(file_sizes.size());
          for (const auto& [k, v] : file_sizes) known.push_back(k);
          fail(context, label + " references unknown file '" + id + "'" +
                            did_you_mean(id, known));
        }
        total += it->second;
      }
      t.output_bytes = Bytes(static_cast<std::uint64_t>(total));
    } else {
      t.output_bytes = get_output_bytes(obj, context, label);
    }

    if (index_of.count(t.id) != 0) {
      fail(context, "duplicate task id '" + t.id + "'");
    }
    index_of.emplace(t.id, static_cast<std::uint32_t>(dag.tasks.size()));
    dag.tasks.push_back(std::move(t));
    raw.push_back(&obj);
  }

  // Pass 2: resolve parent names now that every task id is known.
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const JsonObject& obj = *raw[i];
    const auto it = obj.find("parents");
    if (it == obj.end()) continue;
    const std::string label = task_label(obj, i);
    for (const JsonValue& p : it->second.as_array(label + ".parents")) {
      const std::string& pid = p.as_string(label + ".parents[]");
      const auto found = index_of.find(pid);
      if (found == index_of.end()) {
        std::vector<std::string_view> ids;
        ids.reserve(index_of.size());
        for (const auto& [k, v] : index_of) ids.push_back(k);
        fail(context, label + " lists missing parent '" + pid + "'" +
                          did_you_mean(pid, ids));
      }
      dag.tasks[i].parents.push_back(found->second);
    }
  }

  return validate(std::move(dag), context);
}

Dag load_wfcommons_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ConfigError("workload: cannot read wfcommons instance '" + path +
                      "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_wfcommons(buf.str(), path);
}

Topology parse_topology(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kTopologyNames); ++i) {
    if (name == kTopologyNames[i]) return static_cast<Topology>(i);
  }
  throw ConfigError("workload: unknown synthetic topology '" +
                    std::string(name) + "'" +
                    did_you_mean(name, kTopologyNames));
}

std::string_view topology_name(Topology t) {
  return kTopologyNames[static_cast<std::size_t>(t)];
}

namespace {

// Draws one task's runtime/output from streams forked off the spec seed by
// task id, so editing the topology never perturbs another task's sizes.
TaskSpec make_task(const SynthSpec& spec, const Rng& root, std::string id,
                   std::vector<std::uint32_t> parents) {
  Rng rng = root.fork("task:" + id);
  TaskSpec t;
  t.id = std::move(id);
  const double runtime_s =
      spec.runtime_sigma <= 0.0
          ? spec.runtime_median_s
          : rng.lognormal(std::log(spec.runtime_median_s),
                          spec.runtime_sigma);
  t.runtime = Duration::seconds(runtime_s);
  const double bytes =
      spec.output_sigma <= 0.0
          ? spec.output_median_bytes
          : rng.lognormal(std::log(spec.output_median_bytes),
                          spec.output_sigma);
  t.output_bytes = Bytes(std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(bytes)));
  t.parents = std::move(parents);
  return t;
}

}  // namespace

Dag generate_synthetic(const SynthSpec& spec) {
  if (spec.tasks == 0) {
    throw ConfigError("workload: synthetic workflow needs at least one task");
  }
  if (spec.width == 0) {
    throw ConfigError("workload: synthetic width must be positive");
  }
  if (spec.runtime_median_s <= 0.0 || spec.output_median_bytes < 1.0) {
    throw ConfigError(
        "workload: synthetic runtime/output medians must be positive");
  }
  const Rng root(spec.seed);
  Dag dag;
  dag.name = std::string("synth-") + std::string(topology_name(spec.topology));
  auto id_of = [](std::uint32_t i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "t%04u", i);
    return std::string(buf);
  };

  switch (spec.topology) {
    case Topology::kChain: {
      for (std::uint32_t i = 0; i < spec.tasks; ++i) {
        std::vector<std::uint32_t> parents;
        if (i > 0) parents.push_back(i - 1);
        dag.tasks.push_back(
            make_task(spec, root, id_of(i), std::move(parents)));
      }
      break;
    }
    case Topology::kForkJoin: {
      // source -> width-wide layers separated by join tasks, within the
      // task budget; the final join is the sink.
      std::uint32_t next = 0;
      const std::uint32_t source = next++;
      dag.tasks.push_back(make_task(spec, root, id_of(source), {}));
      std::uint32_t hub = source;  // most recent source/join
      while (next + 1 < spec.tasks) {
        const std::uint32_t layer =
            std::min(spec.width, spec.tasks - next - 1);
        std::vector<std::uint32_t> members;
        for (std::uint32_t i = 0; i < layer; ++i) {
          const std::uint32_t t = next++;
          dag.tasks.push_back(make_task(spec, root, id_of(t), {hub}));
          members.push_back(t);
        }
        const std::uint32_t join = next++;
        dag.tasks.push_back(
            make_task(spec, root, id_of(join), std::move(members)));
        hub = join;
      }
      if (next < spec.tasks) {
        dag.tasks.push_back(make_task(spec, root, id_of(next), {hub}));
      }
      break;
    }
    case Topology::kMontage: {
      // Montage-like diamond: `width` projection sources, pairwise overlap
      // layer, one concentrating aggregate, then a post-processing chain
      // with whatever budget remains.
      const std::uint32_t w = std::max<std::uint32_t>(2, spec.width);
      std::uint32_t next = 0;
      std::vector<std::uint32_t> project;
      for (std::uint32_t i = 0; i < w; ++i) {
        const std::uint32_t t = next++;
        dag.tasks.push_back(make_task(spec, root, id_of(t), {}));
        project.push_back(t);
      }
      std::vector<std::uint32_t> overlap;
      for (std::uint32_t i = 0; i + 1 < w; ++i) {
        const std::uint32_t t = next++;
        dag.tasks.push_back(make_task(
            spec, root, id_of(t), {project[i], project[i + 1]}));
        overlap.push_back(t);
      }
      const std::uint32_t concat = next++;
      dag.tasks.push_back(
          make_task(spec, root, id_of(concat), std::move(overlap)));
      std::uint32_t tail = concat;
      while (next < spec.tasks) {
        const std::uint32_t t = next++;
        dag.tasks.push_back(make_task(spec, root, id_of(t), {tail}));
        tail = t;
      }
      break;
    }
  }
  return validate(std::move(dag), "synth:" +
                                      std::string(topology_name(spec.topology)));
}

Dag load_workload(std::string_view reference,
                  const WorkloadDefaults& defaults) {
  const std::size_t colon = reference.find(':');
  if (colon == std::string_view::npos) {
    throw ConfigError(
        "workload: expected '<scheme>:<arg>' (wfcommons:<file> or "
        "synth:<topology>), got '" +
        std::string(reference) + "'");
  }
  const std::string_view scheme = reference.substr(0, colon);
  const std::string_view arg = reference.substr(colon + 1);
  constexpr std::string_view kSchemes[] = {"wfcommons", "synth"};
  if (scheme == "wfcommons") {
    if (arg.empty()) {
      throw ConfigError("workload: wfcommons: needs an instance file path");
    }
    return load_wfcommons_file(std::string(arg));
  }
  if (scheme == "synth") {
    SynthSpec spec;
    spec.topology = parse_topology(arg);
    spec.tasks = defaults.synth_tasks;
    spec.width = defaults.synth_width;
    spec.seed = defaults.synth_seed;
    spec.runtime_median_s = defaults.synth_runtime_s;
    spec.output_median_bytes = defaults.synth_output_bytes;
    return generate_synthetic(spec);
  }
  throw ConfigError("workload: unknown scheme '" + std::string(scheme) + "'" +
                    did_you_mean(scheme, kSchemes));
}

}  // namespace mdwf::wload
