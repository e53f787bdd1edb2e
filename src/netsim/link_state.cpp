#include "netsim/link_state.hpp"

#include <stdexcept>
#include <string>

namespace ibgp::netsim {

LinkState::LinkState(const PhysicalGraph& graph) {
  const auto links = graph.links();
  cost_.reserve(links.size());
  for (const Link& link : links) cost_.push_back(link.cost);
  down_.assign(links.size(), false);
  effective_ = cost_;
}

bool LinkState::set_cost(std::size_t link, Cost cost) {
  if (cost <= 0 || cost >= kInfCost) {
    throw std::invalid_argument("LinkState: link costs must be positive and below " +
                                std::to_string(kInfCost) + ", got " + std::to_string(cost));
  }
  cost_.at(link) = cost;
  if (down_[link] || effective_[link] == cost) return false;
  effective_[link] = cost;
  return true;
}

bool LinkState::set_down(std::size_t link) {
  if (down_.at(link)) return false;
  down_[link] = true;
  effective_[link] = kInfCost;
  return true;
}

bool LinkState::set_up(std::size_t link) {
  if (!down_.at(link)) return false;
  down_[link] = false;
  effective_[link] = cost_[link];
  return true;
}

}  // namespace ibgp::netsim
