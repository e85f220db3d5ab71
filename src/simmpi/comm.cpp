#include "simmpi/comm.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace metascope::simmpi {

int Communicator::local_rank(Rank global) const {
  auto it = std::find(members.begin(), members.end(), global);
  if (it == members.end()) return -1;
  return static_cast<int>(it - members.begin());
}

CommSet::CommSet(int nranks) : world_size_(nranks) {
  MSC_CHECK(nranks > 0, "communicator world must be non-empty");
  Communicator world;
  world.id = CommId{0};
  world.name = "MPI_COMM_WORLD";
  world.members.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    world.members[static_cast<std::size_t>(r)] = r;
  comms_.push_back(std::move(world));
}

CommId CommSet::create(const std::string& name, std::vector<Rank> members) {
  MSC_CHECK(!members.empty(), "communicator must be non-empty");
  std::vector<bool> seen(static_cast<std::size_t>(world_size_), false);
  for (Rank r : members) {
    MSC_CHECK(r >= 0 && r < world_size_, "communicator member out of range");
    MSC_CHECK(!seen[static_cast<std::size_t>(r)],
              "communicator member repeated");
    seen[static_cast<std::size_t>(r)] = true;
  }
  Communicator c;
  c.id = CommId{static_cast<int>(comms_.size())};
  c.name = name;
  c.members = std::move(members);
  comms_.push_back(std::move(c));
  return comms_.back().id;
}

const Communicator& CommSet::get(CommId id) const {
  MSC_CHECK(id.valid() && static_cast<std::size_t>(id.get()) < comms_.size(),
            "unknown communicator");
  return comms_[static_cast<std::size_t>(id.get())];
}

std::vector<int> CommSet::local_ranks(CommId id) const {
  const Communicator& c = get(id);
  std::vector<int> local(static_cast<std::size_t>(world_size_), -1);
  for (int i = 0; i < c.size(); ++i)
    local[static_cast<std::size_t>(c.members[static_cast<std::size_t>(i)])] =
        i;
  return local;
}

}  // namespace metascope::simmpi
