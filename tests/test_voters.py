import math

import numpy as np
import pytest

from tcrlab.params import SimParams
from tcrlab.protocol import init_registry, run_round
from tcrlab.voters import ReadAhead, RngStream, RowDraws, sample_rosters


def one_round(roster, seed=0, **kwargs):
    """Run one round over a fixed roster; every intending voter can cover the stake.

    Returns the ``Round`` of the one-replication block.
    """
    state = init_registry(SimParams(num_voters=len(roster), **kwargs), [roster])
    return run_round(state, [RngStream(seed)])


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123)
        b = RngStream(123)
        assert a.uniform(100).tolist() == b.uniform(100).tolist()

    def test_split_draws_into_buffers_share_the_stream(self):
        # Draws taken in pieces into slices of one buffer, an empty piece
        # included, equal one vector draw bit for bit.
        a = RngStream(7)
        b = RngStream(7)
        buf = np.empty(50)
        for start, stop in ((0, 1), (1, 1), (1, 20), (20, 50)):
            a.uniform(stop - start, buf[start:stop])
        assert buf.tobytes() == b.uniform(50).tobytes()

    def test_different_seeds_differ(self):
        assert RngStream(1).uniform(1) != RngStream(2).uniform(1)


class TestBlockStreams:
    # 0, the one-word extremes, the smallest two-word seed, 2^63 and the
    # largest seed; then 1,200 random 64-bit seeds and 300 below 2^32, whose
    # entropy is one 32-bit word where the others have two.
    EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def seeds(self):
        gen = np.random.default_rng(24)
        return (self.EDGES + gen.integers(0, 2**64, 1200, dtype=np.uint64).tolist()
                + gen.integers(0, 2**32, 300, dtype=np.uint64).tolist())

    def check_streams(self, seeds):
        """Each stream of ``RngStream.block(seeds)`` is ``PCG64`` of its seed,
        state and first draws."""
        streams = RngStream.block(seeds)
        assert [rng.seed for rng in streams] == [int(seed) for seed in seeds]
        assert all(type(rng.seed) is int for rng in streams)
        for seed, rng in zip(seeds, streams):
            assert rng._gen.bit_generator.state == np.random.PCG64(int(seed)).state, seed
        for seed, rng in zip(seeds[:len(self.EDGES)], streams):
            assert rng.uniform(5).tobytes() == np.random.Generator(
                np.random.PCG64(int(seed))).random(5).tobytes(), seed

    def test_each_stream_is_pcg64_of_its_seed(self):
        self.check_streams(self.seeds())

    @pytest.mark.parametrize("seed", EDGES)
    def test_a_one_seed_block_is_pcg64_of_its_seed(self, seed):
        """A block of one seed, as ``run_simulation`` builds, goes through the
        same hash: from a list, and from the uint64 array ``derive_seeds``
        gives."""
        self.check_streams([seed])
        self.check_streams(np.array([seed], dtype=np.uint64))

    def test_a_block_of_one_and_a_python_list(self):
        assert (RngStream.block([2**40 + 3])[0].uniform(3).tobytes()
                == RngStream(2**40 + 3).uniform(3).tobytes())


class TestDrawSources:
    def test_row_draws_and_read_ahead_give_the_same_draws(self):
        """Both sources over twin streams: 3 rows of 6 voters for 7 rounds,
        read ahead 3 rounds at a time, so the last refill holds one round.
        Each round's eligible counts are scripted, with rows of none, some
        and all 6 voters. Every items() and votes() array has the same bytes
        from both, each row's draws are those of its stream read straight
        through, and after close() both streams sit just past them."""
        n, rounds, seeds = 6, 7, [5, 2**40 + 1, 2**64 - 1]
        n_eligible = np.array([[0, 3, 6], [6, 0, 1], [2, 6, 0], [0, 0, 0],
                               [6, 6, 6], [1, 5, 0], [4, 0, 6]])
        streams = RngStream.block(seeds), RngStream.block(seeds)
        sources = RowDraws(streams[0], n), ReadAhead(streams[1], n, rounds, 3)
        drawn = [[] for _ in seeds]
        for counts in n_eligible:
            items, ahead_items = [source.items().copy() for source in sources]
            assert items.tobytes() == ahead_items.tobytes()
            votes, ahead_votes = [source.votes(counts).copy() for source in sources]
            assert votes.tobytes() == ahead_votes.tobytes()
            for row, row_items, row_votes in zip(drawn, items,
                                                 np.split(votes, counts.cumsum()[:-1])):
                row += [row_items, row_votes]
        for source in sources:
            source.close()
        for r, (seed, counts) in enumerate(zip(seeds, n_eligible.T)):
            fresh = RngStream(seed)
            replay = fresh.uniform(rounds * (n + 1) + counts.sum())
            assert np.concatenate(drawn[r]).tobytes() == replay.tobytes(), r
            after = fresh.uniform(2).tobytes()
            assert [rngs[r].uniform(2).tobytes() for rngs in streams] == [after, after], r


class TestSampleRoster:
    def test_block_rosters_are_each_rows_roster(self):
        # Every row has its own probabilities, so a roster compared with
        # another row's, or with the other probability, differs.
        params = [SimParams(num_voters=60, p_engaged=e, p_informed=i)
                  for e, i in ((0.1, 0.9), (0.5, 0.3), (0.9, 0.6), (0.3, 0.05))]
        seeds = [3, 2**33 + 1, 17, 2**64 - 2]
        rosters = sample_rosters(params, RngStream.block(seeds))
        assert rosters.shape == (4, 60, 2) and rosters.dtype == bool
        streams = RngStream.block(seeds)
        sample_rosters(params, streams)
        for r, (p, seed, rng) in enumerate(zip(params, seeds, streams)):
            fresh = RngStream(seed)
            assert np.array_equal(sample_rosters([p], [fresh])[0], rosters[r]), r
            # Both streams sit 2N draws in.
            assert rng.uniform(3).tobytes() == fresh.uniform(3).tobytes(), r
            replay = RngStream(seed).uniform(2 * p.num_voters)
            assert np.array_equal(rosters[r, :, 0], replay[:60] < p.p_engaged), r
            assert np.array_equal(rosters[r, :, 1], replay[60:] < p.p_informed), r


    def test_degenerate_all_informed_engaged(self):
        params = SimParams(num_voters=10, p_engaged=1.0, p_informed=1.0)
        roster = sample_rosters([params], [RngStream(0)])[0]
        assert roster.tolist() == [[True, True]] * 10

    def test_degenerate_all_uninformed_disengaged(self):
        params = SimParams(num_voters=5, p_engaged=0.0, p_informed=0.0)
        roster = sample_rosters([params], [RngStream(0)])[0]
        assert roster.tolist() == [[False, False]] * 5

    def test_binomial_marginals_within_three_sigma(self):
        # N=10000, p=0.5 per marginal: each class expects 2500,
        # sigma = sqrt(10000 * 0.25 * 0.75) ~ 43.3
        params = SimParams(num_voters=10000, p_engaged=0.5, p_informed=0.5)
        roster = sample_rosters([params], [RngStream(2024)])[0]
        engaged, informed = roster.T
        counts = [np.count_nonzero(e & i)
                  for e in (engaged, ~engaged) for i in (informed, ~informed)]
        sigma = math.sqrt(10000 * 0.25 * 0.75)
        for n in counts:
            assert abs(n - 2500) <= 3 * sigma, counts

    def test_deterministic_given_seed(self):
        params = SimParams(num_voters=200)
        assert np.array_equal(sample_rosters([params], [RngStream(5)])[0],
                              sample_rosters([params], [RngStream(5)])[0])

    def test_engagement_block_then_informedness_block(self):
        params = SimParams(num_voters=50)
        stream = RngStream(8).uniform(100)
        roster = sample_rosters([params], [RngStream(8)])[0]
        assert roster.shape == (50, 2)
        assert np.array_equal(roster[:, 0], stream[:50] < params.p_engaged)
        assert np.array_equal(roster[:, 1], stream[50:] < params.p_informed)


class TestDecideParticipation:
    def test_engaged_always_votes_at_one(self):
        rnd = one_round([(True, True)] * 100, p_vote_engaged=1.0)
        assert np.flatnonzero(rnd.intends[0]).tolist() == list(range(100))

    def test_disengaged_never_votes_at_zero(self):
        rnd = one_round([(False, True)] * 100, p_vote_disengaged=0.0)
        assert np.flatnonzero(rnd.intends[0]).tolist() == []

    def test_frequency_matches_probability(self):
        # 10000 draws at p=0.8: 3 sigma band is +-0.012
        rnd = one_round([(True, True)] * 10000, seed=99, p_vote_engaged=0.8)
        assert abs(rnd.intends[0].sum() / 10000 - 0.8) <= 0.012



class TestCastVote:
    def test_informed_certain_correct_good_item(self):
        rnd = one_round([(True, True)] * 10, p_correct_informed=1.0, p_item_good=1.0,
                        p_vote_engaged=1.0)
        assert np.flatnonzero(rnd.add[0]).tolist() == list(range(10))

    def test_uninformed_certain_incorrect_good_item(self):
        rnd = one_round([(True, False)] * 10, p_correct_uninformed=0.0,
                        p_item_good=1.0, p_vote_engaged=1.0)
        assert np.flatnonzero(rnd.eligible[0] & ~rnd.add[0]).tolist() == list(range(10))

    def test_reject_frequency_on_bad_item(self):
        # informed at 0.85 correct on a bad item: Reject with p=0.85,
        # 3 sigma over 10000 draws is +-0.011
        rnd = one_round([(True, True)] * 10000, seed=321, p_correct_informed=0.85,
                        p_item_good=0.0, p_vote_engaged=1.0)
        assert rnd.n_eligible[0] == rnd.eligible[0].sum() == 10000
        assert abs((rnd.n_eligible[0] - rnd.n_add[0]) / 10000 - 0.85) <= 0.011

    @pytest.mark.parametrize("is_good", [True, False])
    def test_correctness_symmetric_in_item_polarity(self, is_good):
        rnd = one_round([(True, True)] * 10, p_correct_informed=1.0,
                        p_item_good=float(is_good), p_vote_engaged=1.0)
        assert rnd.item_good[0] == is_good
        side = rnd.add[0] if is_good else rnd.eligible[0] & ~rnd.add[0]
        assert np.flatnonzero(side).tolist() == list(range(10))
