#!/usr/bin/env python3
"""A building-wide public address system (the paper's motivating scenario).

Twelve Ethernet Speakers across three zones play background music from a
shared channel; rooms differ in ambient noise, so each speaker's
auto-volume controller (§5.2) picks its own gain.  Mid-program, the
fleet controller overrides every speaker onto the announcement channel
with ACMP connects (§5.3) and releases them afterwards.

Run:  python examples/campus_pa.py
"""

from repro.audio import AudioEncoding, AudioParams, announcement, music
from repro.audio.room import AmbientProfile, Room
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from repro.mgmt import AutoVolumeController

PA_PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)

ZONES = {
    "lobby": 0.05,      # quiet
    "cafeteria": 0.45,  # noisy
    "workshop": 0.7,    # very noisy
}


def main() -> None:
    system = EthernetSpeakerSystem(bandwidth_bps=100e6, seed=3)
    producer = system.add_producer(name="pa-head-end")
    music_ch = system.add_channel("background-music", params=PA_PARAMS,
                                  compress="always", quality=8)
    announce_ch = system.add_channel("announcements", params=PA_PARAMS,
                                     compress="never")
    system.add_rebroadcaster(producer, music_ch)

    announcer = system.add_producer(name="announcer",
                                    slave_path="/dev/vads",
                                    master_path="/dev/vadm")
    system.add_rebroadcaster(announcer, announce_ch)

    speakers = []
    controllers = []
    for zone, noise in ZONES.items():
        for i in range(4):
            room = Room(AmbientProfile.constant(noise), coupling=0.5)
            node = system.add_speaker(channel=music_ch,
                                      name=f"{zone}-{i}", room=room)
            system.advertise_speaker(node)
            ctl = AutoVolumeController(node.speaker, room, mode="music")
            ctl.start()
            speakers.append((zone, noise, node))
            controllers.append(ctl)

    # 20 s of background music, live-paced
    program = music(20.0, 22050, seed=9)
    system.play_pcm(producer, program, PA_PARAMS, source_paced=True)

    # at t=8 the controller cuts in an announcement on every speaker
    controller = system.add_controller()
    msg = announcement(4.0, 22050)
    system.play_pcm(announcer, msg, PA_PARAMS, source_paced=True,
                    start_after=8.2)
    system.sim.schedule(8.0, system.override, controller, announce_ch)
    system.sim.schedule(13.0, system.release, controller)

    system.run(until=24.0)

    rows = []
    for zone, noise, node in speakers[::4]:  # one representative per zone
        rows.append([
            zone,
            f"{noise:.2f}",
            f"{node.speaker.gain:.2f}",
            f"{node.speaker.last_output_rms:.3f}",
            node.stats.played,
        ])
    print("Zone auto-volume after 20 s of music (one speaker per zone):")
    print(ascii_table(
        ["zone", "ambient", "gain", "output RMS", "blocks"], rows
    ))
    print()
    back_on_music = sum(
        1 for _, _, node in speakers
        if (node.speaker.group_ip, node.speaker.port)
        == (music_ch.group_ip, music_ch.port)
    )
    print(f"{back_on_music}/{len(speakers)} speakers returned to the music "
          f"channel after the announcement override was released")
    skew = system.skew_report([node for _, _, node in speakers])
    print(f"building-wide playback skew: max {skew['max_skew']*1000:.2f} ms")


if __name__ == "__main__":
    main()
