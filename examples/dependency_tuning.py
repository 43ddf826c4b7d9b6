"""Section 6.3 workflow: use TEST's dependency profiles to tune a
program.

The paper: "the statistics quickly identified one or two critical
dependencies that could be restructured or removed to expose
parallelism to the speculation hardware" (NumericSort, Huffman, db,
MipsSimulator were tuned this way).

This example reproduces that loop:

1. profile a kernel whose hot loop recomputes a *running average*
   every iteration — a needless loop-carried recurrence;
2. let TEST's per-load-PC dependency profile name the exact load site;
3. apply the fix a programmer would (accumulate a sum — a reduction
   the speculative compiler eliminates — and divide after the loop);
4. re-profile and compare predicted speedups.

Run:  python examples/dependency_tuning.py
"""

from repro.jrpm import Jrpm

BEFORE = """
func main() {
  var n = 2500;
  var data = array(n);
  for (var i = 0; i < n; i = i + 1) {
    data[i] = (i * 2654435761) % 10000;
  }
  // hot loop: the RUNNING average is recomputed every iteration --
  // a needless loop-carried recurrence (avg depends on avg)
  var avg = 0;
  for (var k = 0; k < n; k = k + 1) {
    var v = data[k] * 3 + (data[k] >> 4);
    avg = (avg * k + v) / (k + 1);
  }
  return avg;
}
"""

# the programmer's fix: accumulate a sum (a reduction the speculative
# compiler eliminates) and divide once after the loop
AFTER = """
func main() {
  var n = 2500;
  var data = array(n);
  for (var i = 0; i < n; i = i + 1) {
    data[i] = (i * 2654435761) % 10000;
  }
  var sum = 0;
  for (var k = 0; k < n; k = k + 1) {
    var v = data[k] * 3 + (data[k] >> 4);
    sum = sum + v;
  }
  return sum / n;
}
"""


def profile(source, name):
    return Jrpm(source=source, name=name,
                convergence_threshold=None).run(simulate_tls=False)


def hot_loop(report):
    return max(report.selection.decisions.values(),
               key=lambda d: d.stats.cycles)


def main():
    before = profile(BEFORE, "before")
    dec = hot_loop(before)
    print("BEFORE: hot loop L%d predicted %.2fx "
          "(critical-arc freq %.2f, avg length %.1f of %.1f-cycle "
          "threads)"
          % (dec.loop_id, dec.estimate.speedup,
             dec.stats.arc_freq_prev, dec.stats.avg_arc_len_prev,
             dec.stats.avg_thread_size))

    print("\nTEST's dependency profile for the hot loop (Fig. 8b):")
    print(before.device.report(dec.loop_id, limit=4))
    sites = before.device.profile_for(dec.loop_id).limiting(
        dec.stats.avg_thread_size)
    if sites:
        print("\n=> limiting load site(s): %s"
              % ", ".join("%s:%d" % (s.fn, s.pc) for s in sites[:3]))
    print("   (the running-average recurrence — accumulate a sum "
          "instead)")

    after = profile(AFTER, "after")
    dec2 = hot_loop(after)
    print("\nAFTER : hot loop L%d predicted %.2fx "
          "(critical-arc freq %.2f)"
          % (dec2.loop_id, dec2.estimate.speedup,
             dec2.stats.arc_freq_prev))

    gain = dec2.estimate.speedup / dec.estimate.speedup
    print("\nRestructuring guided by the profile improved the "
          "predicted STL speedup by %.2fx." % gain)
    assert gain > 1.2, "expected the tuned loop to parallelize"


if __name__ == "__main__":
    main()
