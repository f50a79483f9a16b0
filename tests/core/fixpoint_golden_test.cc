// Golden answers for the methods on the trust-fixpoint driver
// (core/fixpoint.h). The parity suites compare one build's code paths
// against each other, so a sweep that reads the wrong iteration's
// state would pass them; these values pin what each method returns on
// three seeded random datasets.
//
// TwoEstimate and ThreeEstimate use only IEEE + - * / and Clamp, so
// their answers are pinned bit for bit. TruthFinder, Cosine and
// Pasternack's AvgLog, Invest and PooledInvest call log, log1p or
// pow, whose last bit may differ between libm versions, so they are
// pinned to 1e-12.
//
// The values are printf("%a") output, so each literal is exact; a
// change that moves any of them changes a method's answers.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "core/cosine.h"
#include "core/pasternack.h"
#include "core/three_estimate.h"
#include "core/truth_finder.h"
#include "core/two_estimate.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::BitEqual;
using proptest::MakeRandomDataset;
using proptest::RandomDatasetOptions;

/// Three small shapes: a moderate one with a voteless fact, a dense
/// one heavy in F votes, and a sparse one with voteless facts and a
/// voteless source.
Dataset Shape(int shape) {
  RandomDatasetOptions options;
  uint64_t seed = 0;
  switch (shape) {
    case 0:
      seed = 11;
      options.min_sources = 4;
      options.max_sources = 6;
      options.min_facts = 12;
      options.max_facts = 16;
      break;
    case 1:
      seed = 22;
      options.min_sources = 3;
      options.max_sources = 5;
      options.min_facts = 8;
      options.max_facts = 12;
      options.vote_density = 0.7;
      options.false_vote_fraction = 0.4;
      break;
    default:
      seed = 38;
      options.min_sources = 6;
      options.max_sources = 8;
      options.min_facts = 16;
      options.max_facts = 20;
      options.vote_density = 0.15;
      break;
  }
  return MakeRandomDataset(seed, options);
}

struct Method {
  std::unique_ptr<Corroborator> corroborator;
  /// True when the method's arithmetic is exact IEEE (pinned bit for
  /// bit); false when it calls into libm (pinned to kLibmTolerance).
  bool exact;
};

constexpr double kLibmTolerance = 1e-12;

Method MakeMethod(const std::string& name) {
  if (name == "TwoEstimate/round") {
    return {std::make_unique<TwoEstimateCorroborator>(TwoEstimateOptions{}),
            true};
  }
  if (name == "TwoEstimate/linear") {
    TwoEstimateOptions options;
    options.normalization = Normalization::kLinear;
    return {std::make_unique<TwoEstimateCorroborator>(options), true};
  }
  if (name == "ThreeEstimate") {
    return {
        std::make_unique<ThreeEstimateCorroborator>(ThreeEstimateOptions{}),
        true};
  }
  if (name == "TruthFinder") {
    return {std::make_unique<TruthFinderCorroborator>(TruthFinderOptions{}),
            false};
  }
  if (name == "Cosine") {
    return {std::make_unique<CosineCorroborator>(CosineOptions{}), false};
  }
  // Pasternack: the variants and growth exponents the registry builds.
  PasternackOptions options;
  if (name == "Invest") {
    options.variant = PasternackVariant::kInvest;
    options.growth = 1.2;
  } else if (name == "PooledInvest") {
    options.variant = PasternackVariant::kPooledInvest;
    options.growth = 1.4;
  }
  return {std::make_unique<PasternackCorroborator>(options), false};
}

struct Golden {
  const char* method;
  int shape;
  int iterations;
  std::vector<double> fact_probability;
  std::vector<double> source_trust;
};

// clang-format off
std::vector<Golden> Goldens() {
  return {
    {"TwoEstimate/round", 0, 3,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0,
     },
     {
         0x1.b6db6db6db6dbp-1, 0x1.999999999999ap-1, 0x1p+0, 0x1p+0,
         0x1.999999999999ap-3,
     }},
    {"TwoEstimate/linear", 0, 53,
     {
         0x1p+0, 0x1.537477a2023bap-1, 0x1.bf2c33983fc0ep-1,
         0x1.dc1c9ca67438fp-1, 0x1p+0, 0x1.a8919e59969e5p-5,
         0x1.a8919e59969e5p-5, 0x1.04ad24b9f92e9p-1, 0x0p+0,
         0x1.dc1c9ca67438fp-1, 0x1.2e49091e396f3p-2, 0x1.22f3d3d04bc2cp-1,
         0x1.10cfc705a30abp-1,
     },
     {
         0x1.9c69d395103f2p-1, 0x1.d08688a54065bp-1, 0x1.61257b6aa1ad1p-1,
         0x1.5806079b7e969p-3, 0x1.60f31e9dad9adp-2,
     }},
    {"ThreeEstimate", 0, 15,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
     },
     {
         0x1.360d53d2bc533p-1, 0x1.3da434a7aaaaap-1, 0x1.f0e7921bb24e1p-1,
         0x1.f6482d38a7d9cp-1, 0x0p+0,
     }},
    {"TruthFinder", 0, 17,
     {
         0x1.710646d6e1097p-1, 0x1.1e4ebb9807e7p-1, 0x1.86b8a9725355dp-1,
         0x1.3a979760adbaep-1, 0x1.710646d6e1097p-1, 0x1.30f284dccdd2dp-1,
         0x1.30f284dccdd2dp-1, 0x1p-1, 0x1.e7b18745168fp-2,
         0x1.3a979760adbaep-1, 0x1.230d8aed25e05p-1, 0x1.47f1424a95961p-1,
         0x1.5e47fcd325fa6p-1,
     },
     {
         0x1.4a3a21cbffcb1p-1, 0x1.50a56fd11d34ep-1, 0x1.566fcb49d5bdp-1,
         0x1.276bc3e9af20dp-1, 0x1.d4f1f35e2469ap-2,
     }},
    {"Cosine", 0, 100,
     {
         0x1p+0, 0x1.48cffc7279696p-1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p-1, 0x1.6ee7416bdbe4cp-1, 0x1p+0, 0x0p+0, 0x1p+0,
         0x1.da403b67197p-10,
     },
     {
         0x1.e04383cb33a3p-1, 0x1.b4922f0bba852p-1, 0x1.1d92a295f5ddfp-1,
         0x1.f62113c49c984p-1, 0x1.a599cd6a8e61p-6,
     }},
    {"TwoEstimate/round", 1, 2,
     {
         0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x0p+0,
         0x1p+0, 0x1p+0,
     },
     {
         0x1.b6db6db6db6dbp-2, 0x1.cp-1, 0x1p+0, 0x1.b6db6db6db6dbp-1,
     }},
    {"TwoEstimate/linear", 1, 40,
     {
         0x1.47e70f7aa6d54p-1, 0x0p+0, 0x1.69abbf61436dp-1,
         0x1.aa93f3161e5b4p-1, 0x1p+0, 0x1.b42a6f26f8b6bp-1,
         0x1.9c42164970e63p-1, 0x1.ced86d319e5f4p-3, 0x1.cc12c80480874p-1,
         0x1.1e225487996e6p-1,
     },
     {
         0x1.a97b8de338b4p-2, 0x1.7ee0426c6cc0fp-1, 0x1.a025faeef8088p-1,
         0x1.849115750e117p-1,
     }},
    {"ThreeEstimate", 1, 17,
     {
         0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x0p+0,
         0x1p+0, 0x1p+0,
     },
     {
         0x0p+0, 0x1.529469072805ep-1, 0x1.fa28f85b56e23p-1,
         0x1.1dba6ff40485fp-1,
     }},
    {"TruthFinder", 1, 17,
     {
         0x1.07dbccbd9127cp-1, 0x1.555acfa2cc019p-3, 0x1.a0667bf8cc824p-1,
         0x1.59d19d052fd2dp-1, 0x1.3e35941445d7fp-1, 0x1.8e181eab554bcp-1,
         0x1.119f119cee199p-1, 0x1.7e66101ccdf71p-3, 0x1.816adc8a936e7p-1,
         0x1.6f305d88fcfep-1,
     },
     {
         0x1.18f13f5914ce2p-1, 0x1.7783eda1ed4cfp-1, 0x1.55ebfa3ff099fp-1,
         0x1.5e3c18ebe98eep-1,
     }},
    {"Cosine", 1, 51,
     {
         0x1.5f57b8dc24f8p-1, 0x0p+0, 0x1.fea48062b7df8p-1, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p+0, 0x1.5b7f9d48208p-9, 0x1p+0, 0x1.7fbedf24d1feep-1,
     },
     {
         0x1.b626d7037429p-2, 0x1.db62add77ea68p-1, 0x1.f4c18511cf21bp-1,
         0x1.cb1c27e85cf12p-1,
     }},
    {"TwoEstimate/round", 2, 2,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x0p+0,
         0x1p+0, 0x1p+0, 0x1p+0,
     },
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1.8p-1, 0x1.ccccccccccccdp-1, 0x1p+0,
     }},
    {"TwoEstimate/linear", 2, 100,
     {
         0x1.239106731e9a1p-1, 0x1.6a4f79645b13bp-1, 0x1.b9a52703c440fp-2,
         0x1p-1, 0x1p-1, 0x1.b9a52703c440fp-2, 0x1.8f41666c25735p-1,
         0x1.a3fca733ba075p-1, 0x1.cfbc09562d9f8p-1, 0x1p-1, 0x1p+0, 0x1p-1,
         0x1.6a4f79645b13bp-1, 0x1.6a4f79645b13bp-1, 0x1.6152bf953c8f5p-1,
         0x0p+0, 0x1p-1, 0x1p-1, 0x1p-1,
     },
     {
         0x1.efe958720f353p-1, 0x1.95700fc7da8b5p-1, 0x1.999f06cfefbd5p-1,
         0x1.bdf1b6f0d325ep-2, 0x1.ccccccccccccdp-1, 0x1.638cf835aaa82p-1,
     }},
    {"ThreeEstimate", 2, 19,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x0p+0,
         0x1p+0, 0x1p+0, 0x1p+0,
     },
     {
         0x1.e7d0fa8685756p-1, 0x1.efbffc8bf49c9p-1, 0x1.d24d5ec365ed4p-1,
         0x1.538ac31fc7ba4p-3, 0x1.ccccccccccccdp-1, 0x1.ee8a33422361bp-1,
     }},
    {"TruthFinder", 2, 17,
     {
         0x1.6f9c790df8023p-1, 0x1.41ecd2b36372fp-1, 0x1.3376d70a0f87p-1,
         0x1p-1, 0x1p-1, 0x1.3376d70a0f87p-1, 0x1.b0c7c07810dfbp-1,
         0x1.4ce1ca32e8a34p-1, 0x1.79c011bf9dbd4p-1, 0x1p-1,
         0x1.3cab8acc2ec35p-1, 0x1p-1, 0x1.41ecd2b36372fp-1,
         0x1.41ecd2b36372fp-1, 0x1.125e270998c74p-1, 0x1.86a8ea67a2795p-2,
         0x1p-1, 0x1p-1, 0x1p-1,
     },
     {
         0x1.5107b7c7fe6bfp-1, 0x1.69a1fdc06d217p-1, 0x1.7ed4c5557cc18p-1,
         0x1.310b00061f924p-1, 0x1.ccccccccccccdp-1, 0x1.613bbd200a3efp-1,
     }},
    {"Cosine", 2, 35,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p-1, 0x1p-1, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p-1, 0x1p+0, 0x1p-1, 0x1p+0, 0x1p+0, 0x1.affaf1eafb99p-5,
         0x0p+0, 0x1p-1, 0x1p-1, 0x1p-1,
     },
     {
         0x1p+0, 0x1.61a3f4d8002acp-1, 0x1.fffffffffffffp-1,
         0x1.ffb807ab299eap-1, 0x1.ccccccccccccdp-1, 0x1.fffffffffffffp-1,
     }},
    {"AvgLog", 0, 32,
     {
         0x1p+0, 0x1.206d1f83fd65ep-1, 0x1.c0747b93d6e02p-1, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p+0, 0x1p-1, 0x1.7231adb48becbp-3, 0x1p+0, 0x1p+0,
         0x1.829b9a73ada47p-1, 0x1p+0,
     },
     {
         0x1.f7ad4dd1a84bap-1, 0x1p+0, 0x1.8bcc1baed9473p-1,
         0x1.c3dfd3c53f29bp-3, 0x1.900145e0040ccp-2,
     }},
    {"Invest", 0, 44,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p-1,
         0x1.96737c0fceedp-254, 0x1p+0, 0x1p+0, 0x1.6e1133d686926p-3, 0x1p+0,
     },
     {
         0x1.45d31cb9bd85dp-70, 0x1.0ddf9c7f5e07cp-31, 0x1p+0,
         0x1.3db3d90feb19ap-257, 0x1.19ebb76e73ee4p-68,
     }},
    {"PooledInvest", 0, 100,
     {
         0x1p+0, 0x1.ffffffdcc0cffp-1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p-1, 0x1.ffffffed54436p-1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
     },
     {
         0x1.c2f4469606753p-20, 0x1.5cbd3539411e2p-21, 0x1.a498158eb54a8p-1,
         0x1p+0, 0x1.8792907285241p-117,
     }},
    {"AvgLog", 1, 19,
     {
         0x1.fa9965e41ce09p-2, 0x0p+0, 0x1p+0, 0x1.726c3edc7a479p-1, 0x1p+0,
         0x1.9840a4e2a093p-1, 0x1.0ed06b21e2fc3p-1, 0x0p+0, 0x1p+0,
         0x1.7731516c7a775p-1,
     },
     {
         0x1.56ce36074b7cbp-1, 0x1p+0, 0x1.80eacaf96568cp-1,
         0x1.c40afbde4f2bcp-1,
     }},
    {"Invest", 1, 100,
     {
         0x1.ffeae8ce3f6b7p-1, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1.fffffffff612cp-1, 0x0p+0, 0x1p+0, 0x1.51731c0a3d32bp-13,
     },
     {
         0x1.cf36b5f5406bp-77, 0x1.2694ed331f8a8p-11, 0x1.b041daba54dfcp-45,
         0x1p+0,
     }},
    {"PooledInvest", 1, 100,
     {
         0x1.ffff3bd040f1dp-1, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
         0x0p+0, 0x1p+0, 0x1.fffffe7dea09cp-1,
     },
     {
         0x1.18f2614daf975p-97, 0x1.81339d8f28b05p-13, 0x1p+0,
         0x1.4565afe4bfde2p-18,
     }},
    {"AvgLog", 2, 49,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p-1, 0x1p-1, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p-1, 0x1p+0, 0x1p-1, 0x1p+0, 0x1p+0, 0x1.4f9637a510378p-1,
         0x0p+0, 0x1p-1, 0x1p-1, 0x1p-1,
     },
     {
         0x1.6429b3feecc39p-2, 0x1.b1fc24bcf6d36p-1, 0x1.6f8a78e61fb6ap-1,
         0x1.c8478a0c2081ep-2, 0x0p+0, 0x1p+0,
     }},
    {"Invest", 2, 43,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p-1, 0x1p-1, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p-1, 0x1p+0, 0x1p-1, 0x1p+0, 0x1p+0, 0x1p+0, 0x0p+0,
         0x1p-1, 0x1p-1, 0x1p-1,
     },
     {
         0x1.011f10d801699p-120, 0x1.c2d01a80a5901p-32, 0x1p+0,
         0x1.ba9c4a4977p-280, 0x0p+0, 0x1.72122e9c52ee9p-70,
     }},
    {"PooledInvest", 2, 88,
     {
         0x1p+0, 0x1p+0, 0x1p+0, 0x1p-1, 0x1p-1, 0x1p+0, 0x1p+0, 0x1p+0,
         0x1p+0, 0x1p-1, 0x1p+0, 0x1p-1, 0x1p+0, 0x1p+0, 0x1.fffffffffd8ffp-1,
         0x0p+0, 0x1p-1, 0x1p-1, 0x1p-1,
     },
     {
         0x1.0000000c672d3p-1, 0x1p+0, 0x1.0000000c672cep-1,
         0x1.8ce566630665bp-29, 0x0p+0, 0x1.0000000c672ccp-1,
     }},
  };
}
// clang-format on

void ExpectPinned(const std::vector<double>& actual,
                  const std::vector<double>& golden, bool exact,
                  const char* what) {
  ASSERT_EQ(actual.size(), golden.size()) << what;
  for (size_t i = 0; i < golden.size(); ++i) {
    if (exact) {
      EXPECT_TRUE(BitEqual(actual[i], golden[i]))
          << what << "[" << i << "]: " << std::hexfloat << actual[i]
          << " vs golden " << golden[i];
    } else {
      EXPECT_NEAR(actual[i], golden[i], kLibmTolerance)
          << what << "[" << i << "]";
    }
  }
}

TEST(FixpointGoldenTest, AnswersMatchPinnedValues) {
  for (const Golden& golden : Goldens()) {
    SCOPED_TRACE(std::string(golden.method) + " on shape " +
                 std::to_string(golden.shape));
    const Method method = MakeMethod(golden.method);
    const CorroborationResult result =
        method.corroborator->Run(Shape(golden.shape)).ValueOrDie();
    EXPECT_EQ(result.iterations, golden.iterations);
    ExpectPinned(result.fact_probability, golden.fact_probability,
                 method.exact, "fact_probability");
    ExpectPinned(result.source_trust, golden.source_trust, method.exact,
                 "source_trust");
  }
}

}  // namespace
}  // namespace corrob
