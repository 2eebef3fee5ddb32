"""Figure 6: the eclipse ClasspathDirectory.isPackage pattern.

``directoryList`` builds a full List of file names; ``isPackage`` only
tests the reference against null.  "While the reference to list ret is
used in a predicate, its fields are not read and do not participate in
computations ... the imbalance between the cost and benefit for the
entire List data structure can be seen."

The bench asserts the tool's report ranks the list structure (the
StrList and its backing string[]) at the top with zero accrued field
benefit, even though the reference itself feeds a predicate — i.e.
predicate consumption of the *reference* must not launder the
structure's wasted construction cost.
"""

from conftest import emit

from repro.analyses import analyze_cost_benefit, \
    format_cost_benefit_report
from repro.profiler import CostTracker
from repro.stdlib import compile_with_stdlib
from repro.vm import VM

FIG6_SOURCE = """
class ClasspathDirectory {
    bool isPackage(string packageName, int fileCount) {
        return this.directoryList(packageName, fileCount) != null;
    }

    StrList directoryList(string packageName, int fileCount) {
        StrList ret = new StrList();            /* problematic */
        if (fileCount == 0) { return null; }
        for (int i = 0; i < fileCount; i++) {
            ret.add(packageName + "/file" + i + ".java");
        }
        return ret;
    }
}

class Main {
    static void main() {
        ClasspathDirectory cpd = new ClasspathDirectory();
        int packages = 0;
        for (int i = 0; i < 60; i++) {
            if (cpd.isPackage("org/example/pkg" + i, i % 6)) {
                packages = packages + 1;
            }
        }
        Sys.printInt(packages);
    }
}
"""


def test_fig6_low_utility_list(benchmark, results_dir):
    def run():
        program = compile_with_stdlib(FIG6_SOURCE, modules=("strlist",))
        tracker = CostTracker(slots=16)
        vm = VM(program, tracer=tracker)
        vm.run()
        return program, tracker, vm

    program, tracker, vm = benchmark.pedantic(run, rounds=1,
                                              iterations=1)
    reports = analyze_cost_benefit(tracker.graph, program)
    assert reports, "no cost-benefit data"

    by_what = {}
    for report in reports:
        by_what.setdefault(report.what, report)

    # The list structure was built at real cost...
    strlist = by_what.get("new StrList")
    backing = by_what.get("new string[]")
    assert strlist is not None and backing is not None
    assert strlist.n_rac > 0
    # ...but its element contents earn zero benefit: the backing
    # array's stored strings are never read.
    assert backing.n_rab == 0
    # And the whole-structure report ranks the backing array in the
    # top entries with an infinite cost/benefit rate.
    top_whats = [r.what for r in reports[:3]]
    assert "new string[]" in top_whats

    emit(results_dir, "fig6_eclipse_list",
         format_cost_benefit_report(reports, top=6))
