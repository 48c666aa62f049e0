// Simulated network and gossip overlay.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/gossip.h"
#include "net/network.h"
#include "support/assert.h"

namespace findep::net {
namespace {

NetworkOptions fast_network() {
  NetworkOptions opt;
  opt.min_latency = 0.01;
  opt.mean_extra_latency = 0.01;
  return opt;
}

TEST(Network, DeliversWithLatencyFloor) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  double delivered_at = -1.0;
  std::string received;
  net.attach(1, [&](const Message& m) {
    delivered_at = sim.now();
    const Probe* probe = m.envelope.get<Probe>();
    ASSERT_NE(probe, nullptr);
    received = probe->note;
  });
  net.send(0, 1, Probe{0, "hello"});
  sim.run();
  EXPECT_EQ(received, "hello");
  EXPECT_GE(delivered_at, 0.01);
}

TEST(Network, SelfSendIsImmediate) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  double delivered_at = -1.0;
  net.attach(3, [&](const Message&) { delivered_at = sim.now(); });
  net.send(3, 3, Probe{42, {}});
  sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Network, UnattachedDestinationCountsDropped) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  net.send(0, 7, Probe{1, {}});
  sim.run();
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(Network, DropProbabilityLosesAboutThatFraction) {
  sim::Simulator sim;
  NetworkOptions opt = fast_network();
  opt.drop_probability = 0.3;
  SimNetwork net(sim, opt);
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) net.send(0, 1, Probe{i, {}});
  sim.run();
  EXPECT_NEAR(received, kN * 7 / 10, kN / 20);
  EXPECT_EQ(net.stats().messages_sent, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(net.stats().messages_delivered + net.stats().messages_dropped,
            static_cast<std::uint64_t>(kN));
}

TEST(Network, PartitionsCutCrossGroupTraffic) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  int a_received = 0, b_received = 0;
  net.attach(0, [&](const Message&) { ++a_received; });
  net.attach(1, [&](const Message&) { ++b_received; });
  net.set_partition_group(0, 1);  // node 0 isolated from group 0
  net.send(0, 1, Probe{1, {}});
  net.send(1, 0, Probe{2, {}});
  sim.run();
  EXPECT_EQ(a_received + b_received, 0);

  net.heal_partitions();
  net.send(0, 1, Probe{3, {}});
  sim.run();
  EXPECT_EQ(b_received, 1);
}

TEST(Network, FilterDropsSelectedLinks) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  int received = 0;
  net.attach(1, [&](const Message&) { ++received; });
  net.attach(2, [&](const Message&) { ++received; });
  net.set_filter([](NodeId from, NodeId to) {
    return !(from == 0 && to == 1);  // adversary cuts 0 -> 1 only
  });
  net.send(0, 1, Probe{1, {}});
  net.send(0, 2, Probe{2, {}});
  sim.run();
  EXPECT_EQ(received, 1);
  net.set_filter(nullptr);
  net.send(0, 1, Probe{3, {}});
  sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, DelayPolicyPostponesDelivery) {
  sim::Simulator sim;
  NetworkOptions opt;
  opt.min_latency = 0.01;
  opt.mean_extra_latency = 0.0;
  SimNetwork net(sim, opt);
  double delivered_at = -1.0;
  net.attach(1, [&](const Message&) { delivered_at = sim.now(); });
  net.set_delay_policy([](NodeId, NodeId) { return 5.0; });
  net.send(0, 1, Probe{1, {}});
  sim.run();
  EXPECT_GE(delivered_at, 5.01);
}

TEST(Network, BroadcastReachesEveryoneButSender) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<int> hits(4, 0);
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&hits, n](const Message&) { ++hits[n]; });
  }
  net.broadcast(2, Probe{0, "all"});
  sim.run();
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 0);
  EXPECT_EQ(hits[3], 1);
}

TEST(Network, CrashedNodeNeitherSendsNorReceives) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  int received = 0;
  net.attach(0, [&](const Message&) { ++received; });
  net.attach(1, [&](const Message&) { ++received; });
  EXPECT_FALSE(net.is_down(1));
  EXPECT_FALSE(net.is_down(42));  // never seen

  // Down: sends from and to the node are dropped at the source.
  net.set_node_down(1, true);
  EXPECT_TRUE(net.is_down(1));
  net.send(1, 0, Probe{1, {}});
  net.send(0, 1, Probe{2, {}});
  EXPECT_FALSE(sim.has_pending());
  EXPECT_EQ(net.stats().messages_dropped, 2u);

  // A message in flight to a node that goes down is dropped at delivery.
  net.set_node_down(1, false);
  net.send(0, 1, Probe{3, {}});
  EXPECT_TRUE(sim.has_pending());
  net.set_node_down(1, true);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().messages_dropped, 3u);

  // Restarted: delivery resumes with the handler still attached.
  net.set_node_down(1, false);
  net.send(0, 1, Probe{4, {}});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 3u);
}

TEST(Network, SparseIdsBroadcastAscendingAndReattachReplaces) {
  sim::Simulator sim;
  NetworkOptions opt;
  opt.min_latency = 0.01;
  opt.mean_extra_latency = 0.0;  // one delivery time: runs in send order
  SimNetwork net(sim, opt);
  std::vector<NodeId> order;
  for (const NodeId n : {9u, 0u, 5u}) {
    net.attach(n, [&order, n](const Message&) { order.push_back(n); });
  }
  EXPECT_EQ(net.node_count(), 3u);

  net.broadcast(5, Probe{1, {}});
  sim.run();
  EXPECT_EQ(order, (std::vector<NodeId>{0, 9}));

  // Re-attaching replaces the handler and does not add a node.
  net.attach(9, [&order](const Message&) { order.push_back(900); });
  EXPECT_EQ(net.node_count(), 3u);
  order.clear();
  net.broadcast(5, Probe{2, {}});
  sim.run();
  EXPECT_EQ(order, (std::vector<NodeId>{0, 900}));

  // Ids past the table, and gaps inside it, have no handler.
  const std::uint64_t dropped = net.stats().messages_dropped;
  net.send(5, 1'000'000, Probe{3, {}});
  net.send(5, 1, Probe{4, {}});
  EXPECT_EQ(net.stats().messages_dropped, dropped + 2);
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_FALSE(net.is_down(1'000'000));
}

TEST(Network, BytesAccounting) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  net.attach(1, [](const Message&) {});
  net.send(0, 1, Probe{1, {}}, 1000);
  net.send(0, 1, Probe{2, {}}, 24);
  sim.run();
  EXPECT_EQ(net.stats().bytes_sent, 1024u);
  net.reset_stats();
  EXPECT_EQ(net.stats().bytes_sent, 0u);
}

TEST(Gossip, FloodReachesEveryNodeExactlyOnce) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < 20; ++n) nodes.push_back(n);
  std::vector<int> deliveries(nodes.size(), 0);
  GossipOverlay overlay(net, nodes, 4, 7,
                        [&](NodeId node, const GossipItem&) {
                          ++deliveries[node];
                        });
  GossipItem item;
  item.id = crypto::sha256("item-1");
  overlay.publish(5, item);
  sim.run();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    EXPECT_EQ(deliveries[n], 1) << "node " << n;
    EXPECT_TRUE(overlay.has_seen(static_cast<NodeId>(n), item.id));
  }
}

TEST(Gossip, DuplicatePublishIsDeduplicated) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  int total = 0;
  GossipOverlay overlay(net, nodes, 2, 8,
                        [&](NodeId, const GossipItem&) { ++total; });
  GossipItem item;
  item.id = crypto::sha256("dup");
  overlay.publish(0, item);
  overlay.publish(1, item);  // concurrent second origin
  sim.run();
  EXPECT_EQ(total, 4);  // once per node despite two origins
}

TEST(Gossip, DistinctItemsBothPropagate) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5};
  int total = 0;
  GossipOverlay overlay(net, nodes, 3, 9,
                        [&](NodeId, const GossipItem&) { ++total; });
  GossipItem a, b;
  a.id = crypto::sha256("a");
  b.id = crypto::sha256("b");
  overlay.publish(0, a);
  overlay.publish(3, b);
  sim.run();
  EXPECT_EQ(total, 12);
}

TEST(Gossip, NeighboursAreValidNodes) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  GossipOverlay overlay(net, nodes, 3, 10,
                        [](NodeId, const GossipItem&) {});
  for (const NodeId n : nodes) {
    for (const NodeId neighbour : overlay.neighbours(n)) {
      EXPECT_NE(neighbour, n);
      EXPECT_LT(neighbour, nodes.size());
    }
    EXPECT_GE(overlay.neighbours(n).size(), 1u);
  }
}

TEST(Gossip, ForwardingSharesOneBody) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < 20; ++n) nodes.push_back(n);
  std::vector<const GossipItem*> addresses;
  GossipOverlay overlay(net, nodes, 4, 11,
                        [&](NodeId, const GossipItem& item) {
                          addresses.push_back(&item);
                        });
  GossipItem item;
  item.id = crypto::sha256("one-body");
  overlay.publish(3, item);
  sim.run();
  ASSERT_EQ(addresses.size(), nodes.size());
  // Every node, the publisher included, saw the one published body.
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()),
                  addresses.end());
  EXPECT_EQ(addresses.size(), 1u);
}

TEST(Gossip, PublishRequiresOverlayNode) {
  sim::Simulator sim;
  SimNetwork net(sim, fast_network());
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  int total = 0;
  GossipOverlay overlay(net, nodes, 2, 12,
                        [&](NodeId, const GossipItem&) { ++total; });
  GossipItem item;
  item.id = crypto::sha256("outsider");
  EXPECT_THROW(overlay.publish(4, item), support::ContractViolation);
  sim.run();
  EXPECT_EQ(total, 0);
  EXPECT_FALSE(overlay.has_seen(4, item.id));
  EXPECT_THROW((void)overlay.neighbours(4), support::ContractViolation);
  // Overlay nodes are the dense ids 0..N-1.
  const auto sparse = [&] {
    const GossipOverlay gapped(net, {0, 2, 3}, 2, 12,
                               [](NodeId, const GossipItem&) {});
  };
  EXPECT_THROW(sparse(), support::ContractViolation);
}

}  // namespace
}  // namespace findep::net
