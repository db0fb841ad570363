//! Per-stage throughput benchmarks: HTML extraction, segmentation,
//! vocabulary scanning, each chatbot task, and single-domain crawling.

use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
use aipan_chatbot::{protocol, Chatbot, ModelProfile, SimulatedChatbot};
use aipan_core::segment;
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::Client;
use aipan_taxonomy::{Normalizer, Sector};
use aipan_webgen::policy::{render_policy, PolicyStyle};
use aipan_webgen::{build_world, GroundTruth, WorldConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn fixture_policy_html() -> String {
    let truth = GroundTruth::sample(7, "bench.com", Sector::InformationTechnology);
    let style = PolicyStyle::sample(7, "bench.com");
    render_policy(&truth, &style, "Bench Corp", 7)
}

fn bench_html_extract(c: &mut Criterion) {
    let html = fixture_policy_html();
    let mut group = c.benchmark_group("html");
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("extract_policy_page", |b| {
        b.iter(|| aipan_html::extract(black_box(&html)))
    });
    group.finish();
}

fn bench_segmentation(c: &mut Criterion) {
    let html = fixture_policy_html();
    let doc = aipan_html::extract(&html);
    let bot = SimulatedChatbot::gpt4(7);
    c.bench_function("segment_policy", |b| {
        b.iter(|| segment::segment(black_box(&bot), black_box(&doc)))
    });
}

fn bench_chatbot_tasks(c: &mut Criterion) {
    let html = fixture_policy_html();
    let doc = aipan_html::extract(&html);
    let input = protocol::number_lines(doc.lines.iter().map(|l| l.text.as_str()));
    let bot = SimulatedChatbot::gpt4(7);
    let mut group = c.benchmark_group("chatbot");
    group.throughput(Throughput::Bytes(input.len() as u64));
    for kind in [
        TaskKind::ExtractDataTypes,
        TaskKind::AnnotatePurposes,
        TaskKind::AnnotateHandling,
        TaskKind::AnnotateRights,
        TaskKind::SegmentText,
    ] {
        let prompt = TaskPrompt::build(kind);
        group.bench_function(kind.name(), |b| {
            b.iter(|| bot.complete(black_box(prompt), black_box(&input)))
        });
    }
    group.finish();
}

fn bench_normalizer(c: &mut Criterion) {
    let normalizer = Normalizer::new();
    let surfaces = [
        "mailing address",
        "browsing history",
        "not a real term",
        "gps coordinates",
    ];
    c.bench_function("normalize_lookup", |b| {
        b.iter(|| {
            for s in surfaces {
                black_box(normalizer.datatype(black_box(s)));
            }
        })
    });
    c.bench_function("normalizer_build", |b| b.iter(Normalizer::new));
}

fn bench_crawl_domain(c: &mut Criterion) {
    let world = build_world(WorldConfig::small(7, 64));
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(0, FaultConfig::none()),
    );
    let domain = world
        .fates
        .iter()
        .find(|(_, f)| **f == aipan_webgen::CompanyFate::Normal)
        .map(|(d, _)| d.clone())
        .expect("normal domain");
    c.bench_function("crawl_domain", |b| {
        b.iter(|| aipan_crawler::crawl_domain(black_box(&client), black_box(&domain)))
    });
}

fn bench_groundtruth_and_render(c: &mut Criterion) {
    c.bench_function("groundtruth_sample", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            GroundTruth::sample(7, &format!("bench{i}.com"), Sector::Financials)
        })
    });
    let truth = GroundTruth::sample(7, "bench.com", Sector::InformationTechnology);
    let style = PolicyStyle::sample(7, "bench.com");
    c.bench_function("render_policy", |b| {
        b.iter(|| render_policy(black_box(&truth), black_box(&style), "Bench Corp", 7))
    });
}

fn bench_model_profiles(c: &mut Criterion) {
    // §6: per-model extraction cost over the same policy.
    let html = fixture_policy_html();
    let doc = aipan_html::extract(&html);
    let input = protocol::number_lines(doc.lines.iter().map(|l| l.text.as_str()));
    let prompt = TaskPrompt::build(TaskKind::ExtractDataTypes);
    let mut group = c.benchmark_group("models_extract");
    for profile in [
        ModelProfile::gpt4_turbo(),
        ModelProfile::llama31(),
        ModelProfile::gpt35_turbo(),
    ] {
        let bot = SimulatedChatbot::new(profile.clone(), 7);
        group.bench_function(profile.id.as_str(), |b| {
            b.iter(|| bot.complete(black_box(prompt), black_box(&input)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_html_extract,
    bench_segmentation,
    bench_chatbot_tasks,
    bench_normalizer,
    bench_crawl_domain,
    bench_groundtruth_and_render,
    bench_model_profiles,
);
criterion_main!(benches);
