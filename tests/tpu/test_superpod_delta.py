"""Differential test: superpod slice transactions against a full rebuild.

Every slice operation plans only the circuits it adds or removes.  After
each step of a random configure / release / apply_batch / swap_cube
sequence, every one of the 48 OCS states must equal the target rebuilt
from scratch out of the slices that should be live, and a twin fabric
manager driven by full-rebuild ``reconfigure`` must hold the same bytes
and the same per-plan statistics.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import ReproError
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import CubeId, OcsId, SliceId
from repro.ocs.palomar import PALOMAR_RADIX
from repro.tpu.cube import DIMS, FACE_PORTS
from repro.tpu.slice_topology import SliceTopology
from repro.tpu.superpod import NUM_OCSES, Superpod, ocs_index

CUBES = 16
SHAPES = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 4), (2, 2, 2)]


def rebuilt_targets(live):
    """Full-rebuild targets for all 48 OCSes from the live slices."""
    per_dim = {dim: {} for dim in DIMS}
    for topology in live.values():
        for dim, a, b in topology.inter_cube_links():
            per_dim[dim][a.index] = b.index
    return {
        OcsId(ocs_index(dim, pos)): CrossConnectMap.from_circuits(
            PALOMAR_RADIX, per_dim[dim]
        )
        for dim in DIMS
        for pos in range(FACE_PORTS)
    }


def compose(tag, first, shape):
    n = shape[0] * shape[1] * shape[2]
    cubes = [CubeId((first + 3 * i) % CUBES) for i in range(n)]
    return SliceTopology.compose(SliceId(f"s{tag}"), shape, cubes)


def pick(live, k):
    """The k-th live slice id (wrapping), or an id that is not live."""
    return sorted(live)[k % len(live)] if live else SliceId("ghost")


slice_spec = st.tuples(st.integers(0, 7), st.integers(0, CUBES - 1), st.sampled_from(SHAPES))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("configure"), slice_spec),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(
            st.just("batch"),
            st.lists(slice_spec, max_size=3),
            st.lists(st.integers(0, 7), max_size=2),
        ),
        st.tuples(
            st.just("swap"), st.integers(0, 7), st.integers(0, 7), st.integers(-1, CUBES - 1)
        ),
    ),
    max_size=14,
)


class TestSuperpodMatchesFullRebuild:
    @given(operations)
    @example(
        [
            ("configure", (0, 0, (1, 1, 2))),
            ("configure", (1, 1, (1, 2, 2))),
            ("batch", [(2, 2, (1, 1, 1))], [0, 1]),
        ]
    )
    @settings(max_examples=120, deadline=None)
    def test_every_step_matches_rebuilt_targets(self, ops):
        pod = Superpod(num_cubes=CUBES)
        twin = FabricManager()
        for i in range(NUM_OCSES):
            twin.add_switch(OcsId(i), SimpleSwitch(PALOMAR_RADIX))
        live = {}
        for op in ops:
            digest = pod.manager.state_digest()
            try:
                if op[0] == "configure":
                    topology = compose(*op[1])
                    pod.configure_slice(topology)
                    live[topology.slice_id] = topology
                elif op[0] == "release":
                    sid = pick(live, op[1])
                    pod.release_slice(sid)
                    del live[sid]
                elif op[0] == "batch":
                    add = [compose(*spec) for spec in op[1]]
                    remove = [pick(live, k) for k in op[2]]
                    pod.apply_batch(add=add, remove=remove)
                    for sid in remove:
                        del live[sid]
                    live.update((t.slice_id, t) for t in add)
                else:
                    _, k, bad, spare = op
                    sid = pick(live, k)
                    cubes = live[sid].cube_ids if sid in live else (CubeId(0),)
                    replacement = None if spare < 0 else CubeId(spare)
                    live[sid] = pod.swap_cube(sid, cubes[bad % len(cubes)], replacement)
            except ReproError:
                # A rejected operation changes nothing.
                assert pod.manager.state_digest() == digest
                continue
            targets = rebuilt_targets(live)
            for ocs_id, target in targets.items():
                assert pod.manager.switch(ocs_id).state == target
            twin.reconfigure(targets)
            assert pod.manager.state_digest() == twin.state_digest()
            assert pod.manager.stats == twin.stats
            assert pod.slices() == tuple(live[k] for k in sorted(live))
