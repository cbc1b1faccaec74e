#include "netsim/dot.h"

#include <gtest/gtest.h>

namespace surfnet::netsim {
namespace {

Topology small_topology() {
  std::vector<Node> nodes(4);
  nodes[1] = {NodeRole::Switch, 10};
  nodes[2] = {NodeRole::Server, 10};
  return Topology(std::move(nodes),
                  {{0, 1, 0.9, 4}, {1, 2, 0.8, 4}, {2, 3, 0.95, 4}});
}

TEST(Dot, EmitsAllNodesAndFibers) {
  const auto topo = small_topology();
  const auto dot = to_dot(topo);
  for (int v = 0; v < topo.num_nodes(); ++v) {
    std::string label = "n";
    label += std::to_string(v);
    label += " [";
    EXPECT_NE(dot.find(label), std::string::npos);
  }
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -- n3"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // the server
  EXPECT_EQ(dot.find("color=red"), std::string::npos);      // no routes
}

TEST(Dot, HighlightsScheduledRoutes) {
  const auto topo = small_topology();
  Schedule schedule;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = 1;
  s.support_path = {0, 1, 2, 3};
  s.core_path = {0, 1, 2, 3};
  s.ec_servers = {2};
  schedule.scheduled.push_back(s);
  const auto dot = to_dot(topo, schedule);
  EXPECT_NE(dot.find("color=\"red:blue\""), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightgrey"), std::string::npos);  // EC site
}

TEST(Dot, ValidGraphvizSkeleton) {
  const auto dot = to_dot(small_topology());
  EXPECT_EQ(dot.rfind("graph surfnet {", 0), 0u);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace surfnet::netsim
