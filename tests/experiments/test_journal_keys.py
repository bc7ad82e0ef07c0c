"""Journal keys are pinned: checkpoints written earlier keep resuming.

A journal record is found by :func:`spec_fingerprint` alone, so any
change that moves a fingerprint silently turns every existing
checkpoint into a cold start.  The hex values below were recorded
before the batched lockstep scheduler was removed; sweeps it
checkpointed (per-spec keys, plain and instrumented) must still replay.
"""

from repro.core import ControlPolicy
from repro.experiments import MACRunSpec, PanelConfig, spec_fingerprint

M = 25
LAM = 0.75 / M


def sequential_arms():
    """The nine arms of a CI-targeted sequential cell (ρ′ = 0.75, M = 25)."""
    protocols = (
        lambda k: ControlPolicy.optimal(k, LAM, None),
        lambda k: ControlPolicy.uncontrolled_fcfs(LAM),
        lambda k: ControlPolicy.uncontrolled_lcfs(LAM),
    )
    return [
        MACRunSpec(
            policy=factory(M * mult), arrival_rate=LAM, transmission_slots=M,
            horizon=1_000.0, warmup=125.0, deadline=M * mult, seed=1,
        )
        for factory in protocols
        for mult in (1, 2, 4)
    ]


def figure7_grid():
    """A small Figure-7 simulation grid, built as ``generate_panel`` does."""
    config = PanelConfig(rho_prime=0.5, message_length=M)
    lam = config.arrival_rate
    arms = (
        lambda k: ControlPolicy.optimal(k, lam, config.occupancy),
        lambda k: ControlPolicy.uncontrolled_fcfs(lam),
        lambda k: ControlPolicy.uncontrolled_lcfs(lam),
    )
    return [
        MACRunSpec(
            policy=factory(deadline), arrival_rate=lam,
            transmission_slots=M, horizon=2_000.0, warmup=250.0,
            deadline=deadline, seed=1,
        )
        for factory in arms
        for deadline in (0.5 * M, M, 2 * M)
    ]


PINNED = {
    "sequential": {
        "plain": [
            "b03e395b63ea17d5cd33d06d281209900e1fb516d5b196d1421e944a9dd1cd00",
            "ed629c6b65c9d298dd14e81ec29cd28475a5855c9e0bbed4e049dec3d6c5b688",
            "0f3f615c1c2633c617f0b10a633609f4d5f20e156d7b3658b8af0bb27f685349",
            "82351a8fcf31a87a70bb87be607a6c1c5c80de9694441bfeef98de00b8521f47",
            "04668605dc98109003fbf15d5419e87f01e4afd51eea6c030cc086bf8289f1df",
            "51686f3e026260aea45f7c33a5af268d6d6237e37fba5603a4b6cbbeabf3b0c4",
            "ba503a43ee53e4b7b94768a434cc3c2ed9ae876b01d968e78b76ed5d9e8bfb0b",
            "a6553ff59eae0f65bb9685b3b9cc4e44a73e2a56c49fe322c83bfac480480adc",
            "5a38041978a0ef3cdcb807fb53085346b032de0b1bbd89aaead72d781038adaa",
        ],
        "instrumented": [
            "2c77d02eca66ad7cfa4c414bcd4eb45a81989459d9c1f6a17b8092e5c11310d2",
            "ce8e65b50b8dabefce0e292b8856e2ace649c67907219bd91a548b9186463ad5",
            "b20d6229226108d0ee37bcd57f4282cb142d083ecd564363259c06951753a723",
            "3505c35b64f08d92dc7ff579d34bbd29f93615263a1e71b5ab1a28352d44f7b0",
            "4badd4411bf584e0f2cea7e4cc291b3ca064d17983f4105799040b723dc53425",
            "ec9f94c07bc230b37bdf6de80ab004392ce932078d30ce63af55730c64760e46",
            "7470f7a4642b892e470b0c9e7428606d2f20b8ca014cf3307dda3120464ee287",
            "3a0353bef4b6ba20a80462e288f8f56e5e7a4aea58c217b26ab1e4c8a9c8a300",
            "724fbf061857c99652cb38cb9b1852f3dcac699d3d148b048b2c89089c3c584a",
        ],
    },
    "figure7": {
        "plain": [
            "23327cea9ad657c47b73aadcfc7a214d667aaa0aaf36be1eec9bbbeec007cd81",
            "5a2e414e8b11b900038e357906cdedc97b29611142b8b6d416fdd1c0b995316b",
            "97e50c6b17f832f6e517783cb674694f6381c6322dea65703fd7e2d84cf6fbd1",
            "9dd85b61382bbcc6d6014fda0f288b3ad7a12c7030597b79a5e7aa915d25d5d3",
            "6c43626e18b59adb3925bed6b3d72ffdaf3884aaa3176873466115212b12d750",
            "24c8eda35ef423a40f64d7928f854826e2741970d4b99b406196bff6d7eca888",
            "45ee7b21375c375ceab459a0eb2fdec57630e8d658763b77bfc171346c262e12",
            "f9c04446321c7600c5d4f54c03665b9b98504e368e48dc40946095ffdf309b42",
            "e88fc25621bf875f1eab3d43127e4fe11b4bb68bef868e37beeba979b3195dd1",
        ],
        "instrumented": [
            "69ae8a9e69124fc6cd4a5aa02c14313b205b243d87cccb80d25b1445e9fea370",
            "58bd3408aaa9fbd643ac70b4369ebaf0b945066f43d8f3a3a7fdcdd817d91f79",
            "dadc7f5f4700644f1d2c48a0b74e0fce0eb30414aee118cd40d16761169162cb",
            "5f9fcfd9f133a582214e5d88953c3f23f1d22e08e73008fcc30add055aa659bf",
            "a4a82ee4b8d1900c887c4906461cb55ba2b3fe5ed0d63fea9ed91c0ea9e0a435",
            "c7a937c830d00358064d260ce1d5550d22a799a80e750bb429c9c44c31071d94",
            "5c0a6ca4f1187ecbd25e944f0e3d6b1271c7672477c8cae5bed480b298a5e350",
            "85f617f15d1dfc0c04b1da642915b068333cf2d7480a321bb4ffce33c53da009",
            "73958ab891059ab8b3e17fd343e0217e3b635f4d95bd7b68a45e156c4fe71053",
        ],
    },
}


def _keys(specs, instrumented):
    return [spec_fingerprint(spec, instrumented) for spec in specs]


def test_sequential_arm_keys_are_pinned():
    specs = sequential_arms()
    assert _keys(specs, False) == PINNED["sequential"]["plain"]
    assert _keys(specs, True) == PINNED["sequential"]["instrumented"]


def test_figure7_grid_keys_are_pinned():
    specs = figure7_grid()
    assert _keys(specs, False) == PINNED["figure7"]["plain"]
    assert _keys(specs, True) == PINNED["figure7"]["instrumented"]
