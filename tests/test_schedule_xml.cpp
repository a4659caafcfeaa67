// XML lowering round trips (§4).
#include "schedule/xml_io.hpp"

#include <gtest/gtest.h>

#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "runtime/vc.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

TEST(ScheduleXml, LinkScheduleRoundTrip) {
  const DiGraph g = make_ring(4);
  const auto ts = solve_tsmcf_exact(g, 3, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const std::string xml = link_schedule_to_xml(sched);
  const LinkSchedule parsed = link_schedule_from_xml(xml);
  EXPECT_EQ(parsed.num_nodes, sched.num_nodes);
  EXPECT_EQ(parsed.num_steps, sched.num_steps);
  ASSERT_EQ(parsed.transfers.size(), sched.transfers.size());
  for (std::size_t i = 0; i < parsed.transfers.size(); ++i) {
    EXPECT_EQ(parsed.transfers[i].chunk, sched.transfers[i].chunk);
    EXPECT_EQ(parsed.transfers[i].from, sched.transfers[i].from);
    EXPECT_EQ(parsed.transfers[i].to, sched.transfers[i].to);
    EXPECT_EQ(parsed.transfers[i].step, sched.transfers[i].step);
  }
  // The parsed schedule still validates.
  EXPECT_TRUE(validate_link_schedule(g, parsed, all_nodes(g)).ok);
}

TEST(ScheduleXml, PathScheduleRoundTrip) {
  const DiGraph g = make_hypercube(3);
  const auto flows = solve_decomposed_mcf(g, all_nodes(g));
  PathSchedule sched = compile_path_schedule(g, paths_from_link_flows(g, flows));
  assign_layers(g, sched);
  const std::string xml = path_schedule_to_xml(g, sched);
  const PathSchedule parsed = path_schedule_from_xml(g, xml);
  EXPECT_EQ(parsed.num_nodes, sched.num_nodes);
  EXPECT_EQ(parsed.chunk_unit, sched.chunk_unit);
  ASSERT_EQ(parsed.entries.size(), sched.entries.size());
  for (std::size_t i = 0; i < parsed.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].src, sched.entries[i].src);
    EXPECT_EQ(parsed.entries[i].dst, sched.entries[i].dst);
    EXPECT_EQ(parsed.entries[i].path, sched.entries[i].path);
    EXPECT_EQ(parsed.entries[i].num_chunks, sched.entries[i].num_chunks);
    EXPECT_EQ(parsed.entries[i].layer, sched.entries[i].layer);
  }
  EXPECT_TRUE(validate_path_schedule(g, parsed, all_nodes(g)).ok);
}

TEST(ScheduleXml, PathXmlRejectsNonEdgeRoute) {
  const DiGraph g = make_ring(4);
  const std::string xml =
      "<pathschedule nodes=\"4\" chunkunit=\"1\">"
      "<route src=\"0\" dst=\"2\" weight=\"1\" chunks=\"1\" layer=\"0\" "
      "path=\"0>2\"/></pathschedule>";
  EXPECT_THROW(path_schedule_from_xml(g, xml), InvalidArgument);
}

TEST(ScheduleXml, MalformedNumbersAreInvalidArguments) {
  // Route nodes and rationals parse like every number from outside: a
  // malformed one, or a node the graph lacks, is the library's
  // InvalidArgument, never a raw std:: exception.
  const DiGraph g = make_ring(4);
  const auto path_xml = [](const std::string& unit, const std::string& weight,
                           const std::string& path) {
    return "<pathschedule nodes=\"4\" chunkunit=\"" + unit +
           "\"><route src=\"0\" dst=\"1\" weight=\"" + weight +
           "\" chunks=\"1\" layer=\"0\" path=\"" + path +
           "\"/></pathschedule>";
  };
  EXPECT_NO_THROW((void)path_schedule_from_xml(g, path_xml("1/2", "1", "0>1")));
  for (const char* path : {"0>x", "0>1junk", "0> 1", "0>>1", "0>+1", "0>4",
                           "0>-1", "0>99999999999"}) {
    EXPECT_THROW((void)path_schedule_from_xml(g, path_xml("1", "1", path)),
                 InvalidArgument) << path;
  }
  for (const char* rational : {"x", "1/x", "1/", "/2", "+1", "1.5", "1/2junk",
                               "99999999999999999999", "1/0"}) {
    EXPECT_THROW((void)path_schedule_from_xml(g, path_xml(rational, "1", "0>1")),
                 InvalidArgument) << rational;
    EXPECT_THROW((void)path_schedule_from_xml(g, path_xml("1", rational, "0>1")),
                 InvalidArgument) << rational;
    EXPECT_THROW(
        (void)link_schedule_from_xml(
            "<linkschedule nodes=\"2\" steps=\"1\"><transfer src=\"0\" "
            "dst=\"1\" lo=\"0\" hi=\"" + std::string(rational) +
            "\" from=\"0\" to=\"1\" step=\"0\"/></linkschedule>"),
        InvalidArgument) << rational;
  }
}

TEST(ScheduleXml, WrongRootRejected) {
  EXPECT_THROW(link_schedule_from_xml("<pathschedule nodes=\"1\"/>"),
               InvalidArgument);
}

}  // namespace
}  // namespace a2a
