"""Unit tests for the global placer (spill, claims ledger)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import FederationError
from repro.federation import GlobalPlacer, build_federation
from repro.federation.messages import PodStatus
from repro.units import gib


def build_fed(pods=2, **kwargs):
    """A small federation: 1-rack pods of 16 GiB remote memory each."""
    kwargs.setdefault("racks_per_pod", 1)
    return build_federation(pods, **kwargs)


class TestHomePod:
    def test_home_is_stable_and_deterministic(self):
        fed = build_fed(3)
        homes = {f"tenant-{i}": fed.placer.home_pod(f"tenant-{i}")
                 for i in range(50)}
        again = build_fed(3)
        assert homes == {tenant: again.placer.home_pod(tenant)
                         for tenant in homes}

    def test_home_spreads_over_the_pod_set(self):
        fed = build_fed(3)
        homes = {fed.placer.home_pod(f"tenant-{i}") for i in range(100)}
        assert homes == set(fed.pods)

    def test_unbound_placer_rejects(self):
        placer = GlobalPlacer()
        with pytest.raises(FederationError):
            placer.home_pod("t0")


class TestSnapshots:
    def test_snapshot_reads_registry_and_plane(self):
        fed = build_fed(2)
        snapshot = fed.placer.snapshot("pod0")
        assert snapshot.pod_id == "pod0"
        assert snapshot.free_memory_bytes == gib(16)
        assert snapshot.free_cores == 2 * 16
        assert snapshot.queue_depth == 0
        assert snapshot.claimed_bytes == 0

    def test_claims_reduce_availability(self):
        fed = build_fed(2)
        claim = fed.placer.reserve("pod0", gib(4), 2)
        snapshot = fed.placer.snapshot("pod0")
        assert snapshot.claimed_bytes == gib(4)
        assert snapshot.available_bytes == gib(12)
        assert snapshot.available_cores == 30
        fed.placer.release(claim)
        assert fed.placer.snapshot("pod0").available_bytes == gib(16)

    def test_unknown_pod_rejected(self):
        fed = build_fed(2)
        with pytest.raises(FederationError):
            fed.placer.snapshot("pod9")


class TestPlacement:
    def test_home_wins_when_it_fits(self):
        fed = build_fed(2)
        assert fed.placer.place("t", gib(2), 1, home="pod1") == "pod1"

    def test_pinned_policy_never_spills(self):
        fed = build_fed(2, spill_policy="never")
        # Claim the whole home pod: pinned placement still returns it.
        fed.placer.reserve("pod0", gib(16), 1)
        assert fed.placer.place("t", gib(2), 1, home="pod0") == "pod0"

    def test_spill_on_capacity_exhaustion(self):
        fed = build_fed(3)
        fed.placer.reserve("pod0", gib(16), 1)
        assert fed.placer.place("t", gib(2), 1, home="pod0") != "pod0"

    def test_least_loaded_picks_best_score(self):
        fed = build_fed(3)
        fed.placer.reserve("pod0", gib(16), 1)   # home full
        fed.placer.reserve("pod1", gib(8), 1)    # half full
        assert fed.placer.place("t", gib(2), 1, home="pod0") == "pod2"

    def test_first_fit_picks_canonical_order(self):
        fed = build_fed(3, spill_policy="first-fit")
        fed.placer.reserve("pod0", gib(16), 1)
        fed.placer.reserve("pod1", gib(8), 1)    # still fits 2 GiB
        assert fed.placer.place("t", gib(2), 1, home="pod0") == "pod1"

    def test_nowhere_fits_falls_back_to_home(self):
        fed = build_fed(2)
        fed.placer.reserve("pod0", gib(16), 1)
        fed.placer.reserve("pod1", gib(16), 1)
        # The home pod's own admission pipeline records the rejection.
        assert fed.placer.place("t", gib(2), 1, home="pod0") == "pod0"

    def test_invalid_policy_rejected(self):
        with pytest.raises(FederationError):
            GlobalPlacer(spill_policy="random")


class TestLivenessAndReadmission:
    def commit_tenant(self, fed, tenant_id, pod_id, ram=gib(2)):
        claim = fed.placer.reserve(pod_id, ram, 1, tenant_id=tenant_id)
        fed.placer.commit(claim)
        return claim

    def test_dead_pods_leave_the_spill_pool_but_not_the_hash(self):
        fed = build_fed(3)
        homes = {f"t{i}": fed.placer.home_pod(f"t{i}")
                 for i in range(30)}
        fed.fail_pod("pod1")
        assert fed.placer.live_pod_ids == ["pod0", "pod2"]
        assert fed.placer.place("t", gib(2), 1, home="pod1") != "pod1"
        # Other tenants' home mapping never shifts on a pod loss.
        assert homes == {t: fed.placer.home_pod(t) for t in homes}
        fed.restore_pod("pod1")
        assert fed.placer.pod_alive("pod1")

    def test_readmission_picks_the_best_surviving_pod(self):
        fed = build_fed(3)
        fed.fail_pod("pod0")
        fed.placer.reserve("pod1", gib(8), 1)
        assert fed.placer.place_for_readmission(
            "t0", gib(2), 1) == "pod2"

    def test_readmission_fails_when_no_survivor_fits(self):
        fed = build_fed(2)
        fed.fail_pod("pod0")
        fed.placer.reserve("pod1", gib(16), 1)
        assert fed.placer.place_for_readmission("t0", gib(2), 1) is None

    def test_anti_affinity_spreads_a_group_across_pods(self):
        groups = {"t0": "db", "t1": "db", "t2": "db"}
        fed = build_fed(3, anti_affinity=lambda t: groups.get(t, ""))
        self.commit_tenant(fed, "t0", "pod0")
        placed = fed.placer.place("t1", gib(2), 1, home="pod0")
        assert placed != "pod0"
        self.commit_tenant(fed, "t1", placed)
        third = fed.placer.place("t2", gib(2), 1, home="pod0")
        assert third not in {"pod0", placed}

    def test_anti_affinity_is_soft_under_exhaustion(self):
        groups = {"t0": "db", "t1": "db"}
        fed = build_fed(2, anti_affinity=lambda t: groups.get(t, ""))
        self.commit_tenant(fed, "t0", "pod0")
        fed.placer.reserve("pod1", gib(16), 1)  # conflict-free pod full
        # Co-location beats rejection when nothing clean fits.
        assert fed.placer.place("t1", gib(2), 1, home="pod0") == "pod0"

    def test_readmission_prefers_anti_affinity_clean_pods(self):
        groups = {"t0": "db", "t1": "db"}
        fed = build_fed(3, anti_affinity=lambda t: groups.get(t, ""))
        self.commit_tenant(fed, "t0", "pod1")
        self.commit_tenant(fed, "t1", "pod0")
        fed.fail_pod("pod0")
        # pod1 hosts the group-mate: the clean survivor wins even
        # though both fit.
        assert fed.placer.place_for_readmission(
            "t1", gib(2), 1) == "pod2"

    def test_ledger_tracks_committed_tenants(self):
        fed = build_fed(2)
        claim = self.commit_tenant(fed, "t0", "pod0")
        assert fed.placer.ledger_claim("t0") is claim
        assert fed.placer.ledger_for_pod("pod0") == [claim]
        assert fed.placer.ledger_for_pod("pod1") == []
        # A later commit supersedes; forget drops.
        moved = self.commit_tenant(fed, "t0", "pod1")
        assert fed.placer.ledger_claim("t0") is moved
        assert fed.placer.forget("t0") is moved
        assert fed.placer.ledger_claim("t0") is None
        assert fed.placer.forget("t0") is None


class TestClaimsLedger:
    def test_double_release_rejected(self):
        fed = build_fed(2)
        claim = fed.placer.reserve("pod0", gib(1), 1)
        fed.placer.commit(claim)
        with pytest.raises(FederationError):
            fed.placer.release(claim)

    def test_pending_claims_tracked(self):
        fed = build_fed(2)
        assert fed.placer.pending_claims == []
        claim = fed.placer.reserve("pod1", gib(1), 1)
        assert fed.placer.pending_claims == [claim]
        fed.placer.commit(claim)
        assert fed.placer.pending_claims == []


@dataclass
class CountingPod:
    """A pod stub serving a fixed load and counting its measurements."""

    free_gib: int
    free_cores: int = 16
    alive: bool = True
    draining: bool = False
    measured: int = 0

    def load_snapshot(self) -> PodStatus:
        self.measured += 1
        return PodStatus(free_memory_bytes=gib(self.free_gib),
                         free_cores=self.free_cores, queue_depth=0,
                         fragmentation=0.0, utilization=0.0, idle=True,
                         alive=self.alive)


def two_pass_place(placer, tenant_id, ram_bytes, vcpus, home):
    """The spill path as it was: the home pod first, then a snapshot
    of every pod, the home pod included."""
    conflicted = placer._conflicted_pods(tenant_id)
    if (placer.pod_accepting(home) and home not in conflicted
            and placer.fits(placer.snapshot(home), ram_bytes, vcpus)):
        return home
    fitting = [s for s in placer.snapshots()
               if s.pod_id != home and placer.pod_accepting(s.pod_id)
               and placer.fits(s, ram_bytes, vcpus)]
    preferred = [s for s in fitting if s.pod_id not in conflicted] or fitting
    if not preferred:
        return home
    if placer.spill_policy == "first-fit":
        return preferred[0].pod_id
    preferred.sort(key=lambda s: (-s.available_bytes, s.pod_id))
    return preferred[0].pod_id


#: name -> (per-pod stub arguments, pods hosting a group-mate of "t").
PLACEMENT_TABLE = {
    "home-fits": ({"pod0": dict(free_gib=8), "pod1": dict(free_gib=16),
                   "pod2": dict(free_gib=4)}, ()),
    "spill": ({"pod0": dict(free_gib=1), "pod1": dict(free_gib=4),
               "pod2": dict(free_gib=8)}, ()),
    # Equal free memory on both spill targets: the lower pod id wins.
    "spill-tie": ({"pod0": dict(free_gib=1), "pod1": dict(free_gib=4),
                   "pod2": dict(free_gib=4)}, ()),
    "spill-on-cores": ({"pod0": dict(free_gib=16, free_cores=0),
                        "pod1": dict(free_gib=2), "pod2": dict(free_gib=2)},
                       ()),
    "nothing-fits": ({"pod0": dict(free_gib=1), "pod1": dict(free_gib=1),
                      "pod2": dict(free_gib=0)}, ()),
    "draining-home": ({"pod0": dict(free_gib=16, draining=True),
                       "pod1": dict(free_gib=2), "pod2": dict(free_gib=3)},
                      ()),
    "draining-target": ({"pod0": dict(free_gib=1),
                         "pod1": dict(free_gib=16, draining=True),
                         "pod2": dict(free_gib=3)}, ()),
    "dead-target": ({"pod0": dict(free_gib=1),
                     "pod1": dict(free_gib=3),
                     "pod2": dict(free_gib=16, alive=False)}, ()),
    "group-mate-at-home": ({"pod0": dict(free_gib=16),
                            "pod1": dict(free_gib=2),
                            "pod2": dict(free_gib=4)}, ("pod0",)),
    "group-mates-everywhere": ({"pod0": dict(free_gib=1),
                                "pod1": dict(free_gib=2),
                                "pod2": dict(free_gib=4)},
                               ("pod1", "pod2")),
}


class TestSingleMeasurement:
    @staticmethod
    def placer(policy, pods, mates):
        placer = GlobalPlacer(spill_policy=policy,
                              anti_affinity=lambda t: "group")
        placer.bind(pods)
        for index, pod_id in enumerate(mates):
            placer.commit(placer.reserve(pod_id, 0, 0,
                                         tenant_id=f"mate{index}"))
        return placer

    @pytest.mark.parametrize("policy", ["first-fit", "least-loaded"])
    @pytest.mark.parametrize("case", sorted(PLACEMENT_TABLE))
    def test_place_measures_each_pod_once_and_agrees(self, case, policy):
        layout, mates = PLACEMENT_TABLE[case]

        def pods():
            return {pod_id: CountingPod(**kwargs)
                    for pod_id, kwargs in layout.items()}

        expected = two_pass_place(self.placer(policy, pods(), mates),
                                  "t", gib(2), 2, "pod0")
        live = pods()
        placer = self.placer(policy, live, mates)
        assert placer.place("t", gib(2), 2, home="pod0") == expected
        assert all(pod.measured <= 1 for pod in live.values()), {
            pod_id: pod.measured for pod_id, pod in live.items()}
